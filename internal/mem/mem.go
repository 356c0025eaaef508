// Package mem provides the shared vocabulary of the memory-system
// simulator: line sizes, access kinds, traffic patterns, byte-size
// helpers and address regions.
//
// Every other package in the simulator speaks in these terms. Addresses
// are plain uint64 byte addresses; all device traffic happens in units
// of Line (64 B), matching the CPU cache-line size and the access
// granularity of the Cascade Lake 2LM DRAM cache.
package mem

import "fmt"

// Line is the cache-line size in bytes. It is both the CPU line size and
// the access granularity of the 2LM DRAM cache.
const Line = 64

// LineShift is log2(Line), for cheap address-to-line conversion.
const LineShift = 6

// Byte-size multipliers.
const (
	KiB uint64 = 1 << 10
	MiB uint64 = 1 << 20
	GiB uint64 = 1 << 30
	TiB uint64 = 1 << 40
)

// GB is a decimal gigabyte. Bandwidths throughout the simulator are
// expressed in bytes/second and reported in GB/s (decimal), matching the
// units used in the paper's figures.
const GB = 1e9

// AccessKind classifies a CPU-visible memory operation.
type AccessKind uint8

const (
	// Read is a demand load (or the read half of a read-modify-write).
	Read AccessKind = iota
	// Write is a standard store: it implies a Read-For-Ownership at the
	// LLC followed by an eventual dirty writeback.
	Write
	// WriteNT is a nontemporal (streaming) store: it bypasses the
	// on-chip cache and arrives at the memory controller as an LLC
	// write with no preceding RFO.
	WriteNT
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case WriteNT:
		return "write-nt"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Pattern describes the spatial shape of a traffic stream. The bandwidth
// model uses it to pick merge/prefetch efficiencies.
type Pattern uint8

const (
	// Sequential is an ascending unit-stride stream.
	Sequential Pattern = iota
	// Random is a pseudo-random stream touching each address once
	// (the paper's LFSR iteration).
	Random
	// InterleavedSeq is the stream the NVRAM sees behind the 2LM miss
	// handler: several sequential per-thread streams interleaved into
	// 64 B line requests at the IMC. It merges worse than a pure
	// sequential stream but better than random.
	InterleavedSeq
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Random:
		return "random"
	case InterleavedSeq:
		return "interleaved-seq"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// Region is a contiguous range of the simulated physical address space.
type Region struct {
	Base uint64
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Lines returns the number of cache lines the region spans, assuming the
// base is line aligned.
func (r Region) Lines() uint64 { return (r.Size + Line - 1) / Line }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// String implements fmt.Stringer.
func (r Region) String() string {
	return fmt.Sprintf("[%#x, %#x)", r.Base, r.Base+r.Size)
}

// AlignUp rounds n up to the next multiple of align (a power of two).
func AlignUp(n, align uint64) uint64 {
	return (n + align - 1) &^ (align - 1)
}

// FormatBytes renders a byte count with a binary-unit suffix, e.g.
// "192.0 MiB". It is used by the reporting tools.
func FormatBytes(n uint64) string {
	switch {
	case n >= TiB:
		return fmt.Sprintf("%.1f TiB", float64(n)/float64(TiB))
	case n >= GiB:
		return fmt.Sprintf("%.1f GiB", float64(n)/float64(GiB))
	case n >= MiB:
		return fmt.Sprintf("%.1f MiB", float64(n)/float64(MiB))
	case n >= KiB:
		return fmt.Sprintf("%.1f KiB", float64(n)/float64(KiB))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
