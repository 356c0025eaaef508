// Package cache implements Assoc, the 64 B-granular tag store of both
// caches the paper models: the 2LM DRAM cache and, direct mapped, the
// on-chip LLC internal/core filters demand through.
//
// The Cascade Lake DRAM cache is direct mapped at 64 B granularity with
// tags stored in the spare ECC bits of each DRAM line (Intel patent
// US 2017/0031821; the paper's Section IV). Assoc models it (Ways=1)
// and its N-way ablations: per entry, the resident tag, a valid bit, a
// dirty bit, and an "LLC owned" bit used by the IMC's Dirty Data
// Optimization model. The package implements pure metadata
// bookkeeping; the traffic consequences of lookups and fills are the
// IMC's and core's business.
//
// The store is a single flat []uint64 with one packed word per entry
// (tag in the high bits, flag bits in the low byte): eight entries per
// 64 B host cache line, no per-set indirection, so a probe is one load
// and the batched dispatch path in internal/imc can prefetch a chunk's
// tag words at full memory concurrency before probing them. Each set
// keeps its ways in recency order, most recent first, so that array is
// the whole state, LRU included; a handle stays valid until the next
// probe or install in its set.
package cache

import "fmt"

// Flag bits of a packed entry word. The word layout is
// uint64(tag)<<tagShift | flags; an invalid entry is the zero word.
const (
	flagValid uint64 = 1 << iota
	flagDirty
	flagLLCOwned

	tagShift = 8
)

// packEntry builds a packed entry word.
func packEntry(tag uint32, flags uint64) uint64 {
	return uint64(tag)<<tagShift | flags
}

// entryTag extracts the tag from a packed word.
func entryTag(w uint64) uint32 { return uint32(w >> tagShift) }

// LookupResult classifies a tag check.
type LookupResult uint8

const (
	// Hit: the requested address is resident.
	Hit LookupResult = iota
	// MissClean: another (or no) address occupies the set and its data
	// is unmodified — eviction needs no writeback.
	MissClean
	// MissDirty: the aliasing occupant has been modified and must be
	// written back to NVRAM on eviction.
	MissDirty
)

// String implements fmt.Stringer.
func (r LookupResult) String() string {
	switch r {
	case Hit:
		return "hit"
	case MissClean:
		return "miss-clean"
	case MissDirty:
		return "miss-dirty"
	default:
		return fmt.Sprintf("LookupResult(%d)", uint8(r))
	}
}
