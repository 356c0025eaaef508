// Package nvram models Intel Optane DC Persistent Memory DIMMs: an
// interleaved set of phase-change-memory devices with asymmetric read
// and write bandwidth, a 256 B internal media granularity, and a small
// on-DIMM write-combining buffer (the "XPBuffer").
//
// The model counts 64 B line transactions at the DIMM interface — the
// quantity the Cascade Lake uncore counters report as PMM RPQ/WPQ
// inserts — and additionally tracks *media* traffic: consecutive line
// writes that land in the same 256 B media block within the combining
// window merge into a single media write; isolated line writes cost a
// full media block (write amplification 4x for 64 B random stores).
// The media counters let experiments report device wear and explain the
// bandwidth cliffs of the paper's Figure 2b; elapsed time itself comes
// from internal/bwmodel.
//
// Each DIMM holds the combining window in one merge step, writeBlocks,
// and the read-merge memo in one read step, readBlock. Every write path
// (Write, WriteBatch, WriteLineRun) and every per-address read path
// (Read, ReadBatch) calls them; ReadLineRun is the one closed-form
// accelerator, checked against per-call Read in linerun_test.go.
package nvram

import (
	"fmt"

	"twolm/internal/fastdiv"
	"twolm/internal/mem"
	"twolm/internal/telemetry"
)

// MediaBlock is the Optane media access granularity in bytes.
const MediaBlock = 256

// DIMM is a single Optane module with interface and media counters.
// Counters are in line (64 B) units except the media counters, which
// are in MediaBlock units.
type DIMM struct {
	Reads  uint64 // 64 B read transactions at the DDR-T interface
	Writes uint64 // 64 B write transactions at the DDR-T interface

	MediaReads  uint64 // 256 B media block reads
	MediaWrites uint64 // 256 B media block writes

	// xpbuffer models the write-combining window: the media block
	// addresses of the most recent pending writes, in a fixed ring so
	// the membership scan compares against a constant-size array.
	xpbuf     [xpBufferEntries]uint64
	xpbufLen  int
	xpbufNext int

	// lastWriteBlock short-circuits the common case: the last block the
	// merge step applied is always resident in the buffer (a merge
	// finds it there; an insert just put it there), so a repeat of the
	// same block merges without scanning. Sequential 64 B streams take
	// this path three times out of four.
	lastWriteBlock uint64
	haveLastWrite  bool

	// xpbufBound is an upper bound on the block addresses resident in
	// the buffer (the maximum ever inserted, never decreased). A block
	// above the bound cannot be resident, so the membership scan is
	// skipped — which makes the miss path of a monotonically ascending
	// write stream O(1) instead of a full ring scan. A stale-high bound
	// only costs a useless scan, never a wrong merge.
	xpbufBound uint64

	lastReadBlock uint64
	haveLastRead  bool
}

// xpBufferEntries is the modeled number of merge slots in the on-DIMM
// write buffer. Small on purpose: the paper notes "limited buffer space
// within the Optane DIMM decreases the media controller's ability to
// merge sequential 64 B writes".
const xpBufferEntries = 16

// newDIMM returns a DIMM with an empty combining buffer.
func newDIMM() *DIMM {
	return &DIMM{}
}

// Read records a 64 B read at addr, merging consecutive reads of the
// same media block into one media read.
func (d *DIMM) Read(addr uint64) { d.readBlock(addr / MediaBlock) }

// readBlock is the read memo, the one read step every per-address path
// shares: a 64 B read of the media block last read merges into that
// media read. Small enough to inline into ReadBatch's loop.
func (d *DIMM) readBlock(block uint64) {
	d.Reads++
	if d.haveLastRead && block == d.lastReadBlock {
		return
	}
	d.MediaReads++
	d.lastReadBlock = block
	d.haveLastRead = true
}

// Write records a 64 B write at addr. Writes to a media block already
// pending in the combining buffer merge; otherwise a new media write is
// counted and the block occupies a buffer slot (round-robin replacement).
func (d *DIMM) Write(addr uint64) {
	d.Writes++
	block := addr / MediaBlock
	d.writeBlocks(block, block)
}

// writeBlocks is the write-combining merge step, the one model of the
// XPBuffer behind every write path: it applies the media blocks
// first..last in ascending order, each written at least once, as the
// per-line path would. A block merges when it repeats the last block
// written (the memo) or is still resident in the ring; otherwise it
// costs one media write and takes the round-robin slot.
//
// In an ascending run only the first block can repeat the memo, and a
// block can only merge with a ring entry that predates the call, so the
// scan runs only up to a ceiling: xpbufBound for one block, and for a
// run the lower of that and the ring's current maximum, computed once.
// Every block above the ceiling is a plain insert. A stale-high ceiling
// costs a useless scan, never a wrong merge.
func (d *DIMM) writeBlocks(first, last uint64) {
	ceil := d.xpbufBound
	if last > first {
		var ringMax uint64
		for _, r := range d.xpbuf[:d.xpbufLen] {
			ringMax = max(ringMax, r)
		}
		ceil = min(ceil, ringMax)
	}
	b := first
	if d.haveLastWrite && b == d.lastWriteBlock {
		b++ // merged into a pending media write
	}
	for ; b <= last; b++ {
		if b <= ceil {
			// Branchless scan: under random traffic the ring almost
			// never holds the block, so an early exit predicts badly.
			hit := false
			for _, r := range d.xpbuf[:d.xpbufLen] {
				if r == b {
					hit = true
				}
			}
			if hit {
				continue // merged into a pending media write
			}
		}
		d.MediaWrites++
		d.xpbuf[d.xpbufNext] = b
		d.xpbufNext++
		if d.xpbufNext == xpBufferEntries {
			d.xpbufNext = 0
		}
		if d.xpbufLen < xpBufferEntries {
			d.xpbufLen++
		}
	}
	d.xpbufBound = max(d.xpbufBound, last)
	d.lastWriteBlock = last
	d.haveLastWrite = true
}

// WriteAmplification returns media bytes written per interface byte
// written (1.0 = perfect merging, 4.0 = no merging).
func (d *DIMM) WriteAmplification() float64 {
	if d.Writes == 0 {
		return 1
	}
	return float64(d.MediaWrites*MediaBlock) / float64(d.Writes*mem.Line)
}

// Module is one socket's worth of NVRAM: n interleaved DIMMs.
type Module struct {
	dimms    []*DIMM
	dimmDiv  fastdiv.Divisor
	capacity uint64

	// Memoized interleave lookups. The chunk-to-DIMM mapping is static,
	// so a memo hit is always correct; reads and writes memoize
	// separately because the controller's miss path interleaves a
	// sequential victim-writeback stream with a sequential fill-read
	// stream, and a shared memo would thrash between the two. A Module
	// is driven by one goroutine (every controller owns its modules),
	// so the memo fields need no synchronization.
	lastReadChunk  uint64
	lastRead       *DIMM
	lastWriteChunk uint64
	lastWrite      *DIMM
}

// New returns an NVRAM module with the given DIMM count and total
// capacity in bytes.
func New(dimms int, capacity uint64) (*Module, error) {
	if dimms <= 0 {
		return nil, fmt.Errorf("nvram: dimm count %d must be positive", dimms)
	}
	if capacity == 0 || capacity%mem.Line != 0 {
		return nil, fmt.Errorf("nvram: capacity %d must be a positive multiple of %d", capacity, mem.Line)
	}
	m := &Module{
		dimms:    make([]*DIMM, dimms),
		dimmDiv:  fastdiv.New(uint64(dimms)),
		capacity: capacity,
	}
	for i := range m.dimms {
		m.dimms[i] = newDIMM()
	}
	return m, nil
}

// DIMMs returns the number of DIMMs in the interleave set.
func (m *Module) DIMMs() int { return len(m.dimms) }

// Capacity returns the module capacity in bytes.
func (m *Module) Capacity() uint64 { return m.capacity }

// interleaveGranularity is the byte granularity at which consecutive
// address chunks rotate across the DIMM set: 4 KiB on real platforms.
// Six DIMMs per socket is not a power of two, so the interleave mod
// uses a precomputed reciprocal.
const interleaveGranularity = 4 * 1024

// DIMMAt returns the i-th DIMM of the interleave set.
func (m *Module) DIMMAt(i int) *DIMM { return m.dimms[i] }

// Read records one 64 B read transaction at addr.
func (m *Module) Read(addr uint64) {
	chunk := addr / interleaveGranularity
	d := m.lastRead
	if d == nil || chunk != m.lastReadChunk {
		d = m.dimms[m.dimmDiv.Mod(chunk)]
		m.lastRead, m.lastReadChunk = d, chunk
	}
	d.Read(addr)
}

// Write records one 64 B write transaction at addr.
func (m *Module) Write(addr uint64) {
	chunk := addr / interleaveGranularity
	d := m.lastWrite
	if d == nil || chunk != m.lastWriteChunk {
		d = m.dimms[m.dimmDiv.Mod(chunk)]
		m.lastWrite, m.lastWriteChunk = d, chunk
	}
	d.Write(addr)
}

// ReadBatch records one 64 B read transaction per address, in slice
// order. Byte-identical to calling Read per address: the interleave
// map is a pure function of the address, and each DIMM's read memo
// advances in the same order. The Module-level interleave memo is
// bypassed (it is a pure lookup cache); the DIMM structs themselves
// are small enough to stay cache-resident across the loop, which is
// what makes this the batch dispatcher's device path.
func (m *Module) ReadBatch(addrs []uint64) {
	dimms := m.dimms
	div := m.dimmDiv
	for _, a := range addrs {
		dimms[div.Mod(a/interleaveGranularity)].readBlock(a / MediaBlock)
	}
}

// WriteBatch records one 64 B write transaction per address, in slice
// order: each address is one call of its DIMM's merge step, so it is
// byte-identical to calling Write per address for the same reasons as
// ReadBatch.
func (m *Module) WriteBatch(addrs []uint64) {
	dimms := m.dimms
	div := m.dimmDiv
	for _, a := range addrs {
		d := dimms[div.Mod(a/interleaveGranularity)]
		d.Writes++
		block := a / MediaBlock
		d.writeBlocks(block, block)
	}
}

// ReadLineRun records n consecutive ascending 64 B line reads starting
// at addr — the closed form of calling Read on each line in order. An
// ascending run visits each interleave chunk once and each media block
// with consecutive lines only, so the merge memo collapses every block
// to exactly one media read; the whole run costs one arithmetic step
// per 4 KiB chunk instead of one memo check per line. Byte-identical to
// the per-line path (the differential tests pin this).
//
//hot:entry sequential-fold device path, driven on pooled controllers
//alloc:free bulk run path, 0 allocs/op by benchmark contract
func (m *Module) ReadLineRun(addr, n uint64) {
	if n == 0 {
		return
	}
	end := addr + n*mem.Line
	dimms := m.dimms
	div := m.dimmDiv
	for a := addr; a < end; {
		chunk := a / interleaveGranularity
		stop := (chunk + 1) * interleaveGranularity
		if stop > end {
			stop = end
		}
		d := dimms[div.Mod(chunk)]
		// Lines starting before stop belong to this chunk (a line's
		// chunk is that of its start address; an unaligned run may leave
		// the last such line straddling the boundary, so the walk
		// advances by whole lines, not to stop).
		cnt := (stop - a + mem.Line - 1) >> mem.LineShift
		last := a + (cnt-1)*mem.Line
		// The chunk's lines cover media blocks b0..b1, each visited by
		// 1-4 consecutive lines; distinct blocks collapse to one media
		// read apiece, minus one if the DIMM's memo already holds b0
		// (this DIMM's previous chunk cannot end in b0 — chunks of one
		// DIMM are 4 KiB apart — but pre-run state can).
		b0 := a / MediaBlock
		b1 := last / MediaBlock
		media := b1 - b0 + 1
		if d.haveLastRead && d.lastReadBlock == b0 {
			media--
		}
		d.Reads += cnt
		d.MediaReads += media
		d.lastReadBlock = b1
		d.haveLastRead = true
		a += cnt * mem.Line
	}
}

// WriteLineRun records n consecutive ascending 64 B line writes
// starting at addr — the bulk form of calling Write on each line in
// order. The lines of one 4 KiB interleave chunk land on one DIMM and
// cover an ascending run of media blocks, so each chunk is one call of
// that DIMM's merge step. Byte-identical to the per-line path.
//
//hot:entry sequential-fold device path, driven on pooled controllers
//alloc:free bulk run path, 0 allocs/op by benchmark contract
func (m *Module) WriteLineRun(addr, n uint64) {
	if n == 0 {
		return
	}
	end := addr + n*mem.Line
	dimms := m.dimms
	div := m.dimmDiv
	for a := addr; a < end; {
		chunk := a / interleaveGranularity
		stop := min((chunk+1)*interleaveGranularity, end)
		d := dimms[div.Mod(chunk)]
		// Lines starting before stop belong to this chunk, as in
		// ReadLineRun.
		cnt := (stop - a + mem.Line - 1) >> mem.LineShift
		last := a + (cnt-1)*mem.Line
		d.Writes += cnt
		d.writeBlocks(a/MediaBlock, last/MediaBlock)
		a += cnt * mem.Line
	}
}

// TotalReads returns interface read transactions summed over DIMMs.
func (m *Module) TotalReads() uint64 {
	var n uint64
	for _, d := range m.dimms {
		n += d.Reads
	}
	return n
}

// TotalWrites returns interface write transactions summed over DIMMs.
func (m *Module) TotalWrites() uint64 {
	var n uint64
	for _, d := range m.dimms {
		n += d.Writes
	}
	return n
}

// TotalMediaReads returns media block reads summed over DIMMs.
func (m *Module) TotalMediaReads() uint64 {
	var n uint64
	for _, d := range m.dimms {
		n += d.MediaReads
	}
	return n
}

// TotalMediaWrites returns media block writes summed over DIMMs.
func (m *Module) TotalMediaWrites() uint64 {
	var n uint64
	for _, d := range m.dimms {
		n += d.MediaWrites
	}
	return n
}

// WriteAmplification returns the aggregate media write amplification.
func (m *Module) WriteAmplification() float64 {
	var iface, media uint64
	for _, d := range m.dimms {
		iface += d.Writes
		media += d.MediaWrites
	}
	if iface == 0 {
		return 1
	}
	return float64(media*MediaBlock) / float64(iface*mem.Line)
}

// Snapshot returns the module's aggregate interface and media counters
// as a telemetry sample. This is the one telemetry producer that
// carries media-block counts: merging depends on how the address
// stream is partitioned over the combining buffers, so media counters
// are meaningful per module but are excluded from controller samples,
// which a serial controller and a line-interleaved channel split of the
// same stream must agree on.
func (m *Module) Snapshot() telemetry.Sample {
	return telemetry.Sample{
		NVRAMRead:   m.TotalReads(),
		NVRAMWrite:  m.TotalWrites(),
		MediaReads:  m.TotalMediaReads(),
		MediaWrites: m.TotalMediaWrites(),
	}
}

// Reset zeroes all counters and combining state in place. The DIMM
// objects are retained rather than replaced — a recycled module must
// not allocate, because the sweep engine resets thousands of
// controllers per second and holds its steady state at 0 allocs per
// job. A zeroed DIMM is field-for-field identical to a fresh one, so
// post-reset counters match a newly constructed module exactly. The
// interleave memos are dropped so the first post-reset access
// recomputes its chunk.
func (m *Module) Reset() {
	for _, d := range m.dimms {
		*d = DIMM{}
	}
	m.lastRead, m.lastWrite = nil, nil
}
