// Set-associative tag store. The Cascade Lake DRAM cache is direct
// mapped (the paper's limitation #1: "the direct-mapped, insert on
// miss cache is inflexible and many conflicts can increase the miss
// rate"), but the repository also models N-way LRU variants so the
// ablation experiments can quantify how much associativity alone would
// recover — one of the future-hardware directions the paper's
// discussion raises.

package cache

import (
	"fmt"

	"twolm/internal/fastdiv"
	"twolm/internal/mem"
)

// Assoc is an N-way set-associative, 64 B-granular tag store with LRU
// replacement. Ways=1 degenerates to a direct-mapped cache and is the
// configuration matching the real hardware.
//
// Like DirectMapped, the tag array is a single flat []uint64 of packed
// entry words (the ways of a set adjacent), so the Ways==1 hot path is
// one load per probe and bucketed dispatch sweeps it sequentially. LRU
// stamps live in a parallel slice that the Ways==1 path never touches.
//
// Entries are addressed by opaque handles returned from Probe; a
// handle stays valid until the next Probe of the same set.
type Assoc struct {
	entries  []uint64
	stamps   []uint64
	clock    uint64
	sets     uint64
	setsDiv  fastdiv.Divisor
	ways     uint64
	waysDiv  fastdiv.Divisor
	capacity uint64
}

// NewAssoc returns a tag store of the given capacity in bytes and
// associativity.
func NewAssoc(capacity uint64, ways int) (*Assoc, error) {
	if ways < 1 {
		return nil, fmt.Errorf("cache: ways %d must be positive", ways)
	}
	if capacity == 0 || capacity%(mem.Line*uint64(ways)) != 0 {
		return nil, fmt.Errorf("cache: capacity %d must be a positive multiple of %d ways x %d B lines",
			capacity, ways, mem.Line)
	}
	lines := capacity / mem.Line
	sets := lines / uint64(ways)
	return &Assoc{
		entries:  make([]uint64, lines),
		stamps:   make([]uint64, lines),
		sets:     sets,
		setsDiv:  fastdiv.New(sets),
		ways:     uint64(ways),
		waysDiv:  fastdiv.New(uint64(ways)),
		capacity: capacity,
	}, nil
}

// Capacity returns the store capacity in bytes.
func (c *Assoc) Capacity() uint64 { return c.capacity }

// Sets returns the number of sets.
func (c *Assoc) Sets() uint64 { return c.sets }

// Ways returns the associativity.
func (c *Assoc) Ways() int { return int(c.ways) }

// Lines returns the number of line slots.
func (c *Assoc) Lines() uint64 { return c.sets * c.ways }

// index splits an address into set and tag. The set count is fixed at
// construction, so the split uses a precomputed reciprocal instead of
// two divide instructions — Probe runs once per simulated
// demand line reaching the memory controller.
func (c *Assoc) index(addr uint64) (set uint64, tag uint32) {
	q, r := c.setsDiv.DivMod(addr >> mem.LineShift)
	return r, uint32(q)
}

// Index splits an address into set and tag, for callers that walk
// consecutive lines and advance the pair incrementally (the set of
// line+1 is set+1 mod Sets, carrying into the tag) before probing with
// ProbeAt.
func (c *Assoc) Index(addr uint64) (set uint64, tag uint32) {
	return c.index(addr)
}

// Probe performs a tag check for addr. On a hit, the returned handle
// identifies the resident entry (its LRU stamp is refreshed). On a
// miss, the handle identifies the replacement victim — an invalid way
// if one exists (MissClean), otherwise the least recently used way
// (MissClean or MissDirty by its state).
//
// Ways==1 — the hardware configuration every headline experiment runs —
// takes a specialized path: the single way is the hit candidate and the
// victim at once, and the LRU stamp clock is never consulted for victim
// choice, so the way loop and the stamp refresh are skipped entirely.
// Results and victim selection are identical to the generic path (the
// direct-mapped equivalence test pins this).
func (c *Assoc) Probe(addr uint64) (handle uint64, res LookupResult) {
	set, tag := c.index(addr)
	return c.ProbeAt(set, tag)
}

// ProbeAt is Probe for a (set, tag) pair previously derived from Index.
func (c *Assoc) ProbeAt(set uint64, tag uint32) (handle uint64, res LookupResult) {
	if c.ways == 1 {
		w := c.entries[set]
		switch {
		case w&flagValid == 0:
			return set, MissClean
		case entryTag(w) == tag:
			return set, Hit
		case w&flagDirty != 0:
			return set, MissDirty
		default:
			return set, MissClean
		}
	}
	base := set * c.ways
	victim := base
	victimStamp := ^uint64(0)
	for way := uint64(0); way < c.ways; way++ {
		h := base + way
		w := c.entries[h]
		if w&flagValid == 0 {
			// Remember the first invalid way as the preferred victim,
			// but keep scanning for a hit.
			if victimStamp != 0 {
				victim, victimStamp = h, 0
			}
			continue
		}
		if entryTag(w) == tag {
			c.clock++
			c.stamps[h] = c.clock
			return h, Hit
		}
		if c.stamps[h] < victimStamp {
			victim, victimStamp = h, c.stamps[h]
		}
	}
	w := c.entries[victim]
	if w&flagValid == 0 {
		return victim, MissClean
	}
	if w&flagDirty != 0 {
		return victim, MissDirty
	}
	return victim, MissClean
}

// Entry returns the packed tag word at handle (layout: EntryValid,
// EntryDirty, EntryLLCOwned below the tag; see PackEntry).
func (c *Assoc) Entry(handle uint64) uint64 { return c.entries[handle] }

// Store writes the packed tag word w at handle. install marks a new
// occupant, which refreshes the handle's LRU stamp; a hit was already
// refreshed by Probe. With Ways==1 the stamp clock is never read, so it
// is not maintained.
func (c *Assoc) Store(handle, w uint64, install bool) {
	c.entries[handle] = w
	if c.ways == 1 || !install {
		return
	}
	c.clock++
	c.stamps[handle] = c.clock
}

// VictimAddr reconstructs the address of the line at handle.
func (c *Assoc) VictimAddr(handle uint64) (addr uint64, ok bool) {
	w := c.entries[handle]
	if w&flagValid == 0 {
		return 0, false
	}
	set := c.waysDiv.Div(handle)
	return (uint64(entryTag(w))*c.sets + set) << mem.LineShift, true
}

// IsDirty reports whether the entry at handle is valid and dirty.
func (c *Assoc) IsDirty(handle uint64) bool {
	w := c.entries[handle]
	return w&flagValid != 0 && w&flagDirty != 0
}

// Exported packed-entry primitives: every controller path reads a tag
// word (Entry, or DirectEntries on the Ways==1 fast paths), computes
// the successor word with these, and writes it back with Store, so
// probe + install + flag updates are one load and one store.
const (
	// EntryValid, EntryDirty, EntryLLCOwned are the flag bits of a
	// packed tag word, below EntryTagShift.
	EntryValid    uint64 = flagValid
	EntryDirty    uint64 = flagDirty
	EntryLLCOwned uint64 = flagLLCOwned
)

// EntryTagOf extracts the tag of a packed tag word.
func EntryTagOf(w uint64) uint32 { return entryTag(w) }

// PackEntry builds a packed tag word from a tag and flag bits.
func PackEntry(tag uint32, flags uint64) uint64 { return packEntry(tag, flags) }

// DirectEntries exposes the flat packed tag array when the store is
// direct mapped (Ways == 1), indexed by set; nil otherwise. A set's
// index is also its entry's handle. Callers may mutate words in place
// with the Entry* primitives — handle-based and word-based access see
// the same state.
func (c *Assoc) DirectEntries() []uint64 {
	if c.ways != 1 {
		return nil
	}
	return c.entries
}

// StampSeqRun overwrites count consecutive sets starting at set with
// packed entries carrying the given flags and the tags of consecutive
// lines: the first stamped set receives tag, and the tag increments at
// each set-index wrap — exactly the final state a walk over count
// consecutive lines would leave when every visit installs with the same
// flags. Direct-mapped stores only (Ways == 1); the sequential fold in
// internal/imc guards on DirectEntries before calling.
func (c *Assoc) StampSeqRun(set uint64, tag uint32, count, flags uint64) {
	stampSeqRun(c.entries, c.sets, set, tag, count, flags)
}

// stampSeqRun is the shared bulk-stamp kernel of Assoc.StampSeqRun and
// DirectMapped.StampSeqRun: one packed-word store per set, with the tag
// carry folded into the wrap branch.
func stampSeqRun(entries []uint64, sets, set uint64, tag uint32, count, flags uint64) {
	w := packEntry(tag, flags)
	for i := uint64(0); i < count; i++ {
		entries[set] = w
		set++
		if set == sets {
			set = 0
			tag++
			w = packEntry(tag, flags)
		}
	}
}

// DirtyLines returns the number of valid dirty lines. O(lines).
func (c *Assoc) DirtyLines() uint64 {
	var n uint64
	for _, w := range c.entries {
		if w&flagValid != 0 && w&flagDirty != 0 {
			n++
		}
	}
	return n
}

// ValidLines returns the number of valid lines. O(lines).
func (c *Assoc) ValidLines() uint64 {
	var n uint64
	for _, w := range c.entries {
		if w&flagValid != 0 {
			n++
		}
	}
	return n
}

// ForEachDirty calls fn with the address of every valid dirty line.
func (c *Assoc) ForEachDirty(fn func(addr uint64)) {
	for h := range c.entries {
		if c.IsDirty(uint64(h)) {
			if addr, ok := c.VictimAddr(uint64(h)); ok {
				fn(addr)
			}
		}
	}
}

// Reset invalidates every entry, returning the tag store to its
// as-constructed state without allocating. Direct-mapped stores skip
// the LRU stamp clear: Ways==1 never reads or writes a stamp (Probe
// and Store take the specialized path), so for the common sweep
// geometry this halves the words zeroed per controller recycle.
func (c *Assoc) Reset() {
	clear(c.entries)
	if c.ways > 1 {
		clear(c.stamps)
	}
	c.clock = 0
}
