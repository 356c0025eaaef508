// Package cache implements 64 B-granular tag stores: Assoc, the 2LM
// DRAM cache, and DirectMapped, the on-chip LLC in front of it.
//
// The Cascade Lake DRAM cache is direct mapped at 64 B granularity with
// tags stored in the spare ECC bits of each DRAM line (Intel patent
// US 2017/0031821; the paper's Section IV). Assoc models it (Ways=1)
// and its N-way ablations: per entry, the resident tag, a valid bit, a
// dirty bit, and an "LLC owned" bit used by the IMC's Dirty Data
// Optimization model. internal/core's LLC filter is a DirectMapped. The
// package implements pure metadata bookkeeping; the traffic
// consequences of lookups and fills are the IMC's and core's business.
//
// Both stores keep a single flat []uint64 with one packed word per
// entry (tag in the high bits, flag bits in the low byte): eight
// entries per 64 B host cache line, no per-set indirection, so a probe
// is one load and the batched dispatch path in internal/imc can
// prefetch a chunk's tag words at full memory concurrency before
// probing them. Assoc keeps each set's ways in recency order, most
// recent first, so that array is its whole state, LRU included; a
// handle stays valid until the next probe or install in its set.
package cache

import (
	"fmt"

	"twolm/internal/fastdiv"
	"twolm/internal/mem"
)

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

// DirectMapped is the metadata array of a direct-mapped, 64 B-granular
// cache over a physical address space: the on-chip LLC internal/core
// filters demand through. The DRAM cache is an Assoc, even when direct
// mapped.
type DirectMapped struct {
	entries  []uint64
	sets     uint64
	setsDiv  fastdiv.Divisor
	capacity uint64
}

// New returns a direct-mapped cache with the given capacity in bytes
// (must be a positive multiple of the 64 B line size).
func New(capacity uint64) (*DirectMapped, error) {
	if capacity == 0 || capacity%mem.Line != 0 {
		return nil, fmt.Errorf("cache: capacity %d must be a positive multiple of %d", capacity, mem.Line)
	}
	sets := capacity / mem.Line
	return &DirectMapped{
		entries:  make([]uint64, sets),
		sets:     sets,
		setsDiv:  fastdiv.New(sets),
		capacity: capacity,
	}, nil
}

// Capacity returns the cache capacity in bytes.
func (c *DirectMapped) Capacity() uint64 { return c.capacity }

// Sets returns the number of sets (lines) in the cache.
func (c *DirectMapped) Sets() uint64 { return c.sets }

// Index splits an address into its set index and tag. The set count is
// fixed at construction, so the split uses a precomputed reciprocal
// instead of two divide instructions — this runs for every simulated
// demand line (the LLC filter sits in front of the whole pipeline).
func (c *DirectMapped) Index(addr uint64) (set uint64, tag uint32) {
	q, r := c.setsDiv.DivMod(addr >> mem.LineShift)
	return r, uint32(q)
}

// Lookup performs a tag check for addr and returns the set index, the
// requested tag, and the result. It does not modify state.
func (c *DirectMapped) Lookup(addr uint64) (set uint64, tag uint32, res LookupResult) {
	set, tag = c.Index(addr)
	return set, tag, c.LookupAt(set, tag)
}

// LookupAt performs the tag check for a (set, tag) pair previously
// derived from Index. Walkers over consecutive lines derive the pairs
// incrementally — the set of line+1 is set+1 mod Sets, carrying into
// the tag — instead of re-dividing per line.
func (c *DirectMapped) LookupAt(set uint64, tag uint32) LookupResult {
	w := c.entries[set]
	switch {
	case w&flagValid == 0:
		return MissClean
	case entryTag(w) == tag:
		return Hit
	case w&flagDirty != 0:
		return MissDirty
	default:
		return MissClean
	}
}

// VictimAddr reconstructs the physical address of the line currently
// occupying set; ok is false if the set is invalid.
func (c *DirectMapped) VictimAddr(set uint64) (addr uint64, ok bool) {
	w := c.entries[set]
	if w&flagValid == 0 {
		return 0, false
	}
	return (uint64(entryTag(w))*c.sets + set) << mem.LineShift, true
}

// Insert installs tag into set in the clean, not-LLC-owned state,
// replacing any previous occupant.
func (c *DirectMapped) Insert(set uint64, tag uint32) {
	c.entries[set] = packEntry(tag, flagValid)
}

// Invalidate drops the line in set without any writeback.
func (c *DirectMapped) Invalidate(set uint64) {
	c.entries[set] = 0
}

// MarkDirty sets the dirty bit of the line in set.
func (c *DirectMapped) MarkDirty(set uint64) {
	c.entries[set] |= flagDirty
}

// IsDirty reports whether the line in set is valid and dirty.
func (c *DirectMapped) IsDirty(set uint64) bool {
	w := c.entries[set]
	return w&flagValid != 0 && w&flagDirty != 0
}

// SetLLCOwned sets or clears the resident line's LLC-owned bit. The
// IMC's Dirty Data Optimization keeps this bit on the DRAM cache's
// Assoc entry words instead (EntryLLCOwned); nothing outside this
// package's tests sets it here, where it is the reference the Assoc
// equivalence tests compare the Ways=1 store against.
func (c *DirectMapped) SetLLCOwned(set uint64, owned bool) {
	if owned {
		c.entries[set] |= flagLLCOwned
	} else {
		c.entries[set] &^= flagLLCOwned
	}
}

// LLCOwned reports whether the resident line is marked as LLC owned.
func (c *DirectMapped) LLCOwned(set uint64) bool {
	return c.entries[set]&flagLLCOwned != 0
}

// DirectEntries exposes the flat packed tag array, indexed by set.
// Callers may mutate words in place with the exported Entry*
// primitives — method-based and word-based access see the same state.
// The batched LLC filter in internal/core uses this to fold lookup,
// insert, and dirty-marking into one load and one store per operation.
func (c *DirectMapped) DirectEntries() []uint64 { return c.entries }

// StampSeqRun overwrites count consecutive sets starting at set with
// packed entries carrying the given flags and the tags of consecutive
// lines (tag increments at each set-index wrap) — the final state a
// sequential walk of count lines leaves when every visit installs with
// the same flags. The batched LLC filter in internal/core uses this to
// commit a folded range's residency in one store per set.
func (c *DirectMapped) StampSeqRun(set uint64, tag uint32, count, flags uint64) {
	stampSeqRun(c.entries, c.sets, set, tag, count, flags)
}

// DirtyLines returns the number of valid dirty lines. O(sets); intended
// for tests and reports, not hot paths.
func (c *DirectMapped) DirtyLines() uint64 {
	var n uint64
	for _, w := range c.entries {
		if w&flagValid != 0 && w&flagDirty != 0 {
			n++
		}
	}
	return n
}

// ValidLines returns the number of valid lines. O(sets).
func (c *DirectMapped) ValidLines() uint64 {
	var n uint64
	for _, w := range c.entries {
		if w&flagValid != 0 {
			n++
		}
	}
	return n
}

// Reset invalidates every set.
func (c *DirectMapped) Reset() {
	clear(c.entries)
}
