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
// The tag array is a single flat []uint64 of packed entry words (the
// ways of a set adjacent), so the Ways==1 hot path is one load per
// probe and bucketed dispatch sweeps it sequentially.
// Each set keeps its ways in recency order, most recent first, with the
// valid ways as a prefix: the order is the LRU state, so one packed
// word per line is the whole store, and the same access sequence
// leaves the same words in the same slots.
//
// Entries are addressed by opaque handles returned from Probe; a
// handle stays valid until the next probe or install in its set.
type Assoc struct {
	entries  []uint64
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
// two divide instructions: it runs once per simulated demand line at
// the on-chip LLC and again at the memory controller.
func (c *Assoc) index(addr uint64) (set uint64, tag uint32) {
	q, r := c.setsDiv.DivMod(addr >> mem.LineShift)
	return r, uint32(q)
}

// Index splits an address into set and tag, for callers that probe by
// pair (ProbeAt, or the DirectEntries word) and for walkers over
// consecutive lines, which advance the pair incrementally (the set of
// line+1 is set+1 mod Sets, carrying into the tag).
func (c *Assoc) Index(addr uint64) (set uint64, tag uint32) {
	return c.index(addr)
}

// Probe performs a tag check for addr. On a hit, the resident entry
// becomes the set's most recent and the returned handle identifies it.
// On a miss, the handle identifies the replacement victim — an invalid
// way if one exists (MissClean), otherwise the least recently used way
// (MissClean or MissDirty by its state).
//
// Ways==1 — the hardware configuration every headline experiment runs —
// takes a specialized path: the single way is the hit candidate and the
// victim at once, and the handle is the set. Results and victim
// selection are those of the stamp-clock LRU reference model at
// Ways=1 too (TestAssocMatchesStampLRU pins this).
func (c *Assoc) Probe(addr uint64) (handle uint64, res LookupResult) {
	set, tag := c.index(addr)
	return c.ProbeAt(set, tag)
}

// ProbeAt is Probe for a (set, tag) pair previously derived from Index.
//
// With Ways>1 it scans the set's valid prefix. A hit rotates the hit
// word to way 0, so the returned handle is the set's first; a miss
// returns the set's last way, which is invalid when the prefix is short
// and the least recently used way otherwise.
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
	last := base + c.ways - 1
	ways := c.entries[base : last+1]
	for i, w := range ways {
		if w&flagValid == 0 {
			return last, MissClean
		}
		if entryTag(w) == tag {
			copy(ways[1:i+1], ways[:i])
			ways[0] = w
			return base, Hit
		}
	}
	if c.entries[last]&flagDirty != 0 {
		return last, MissDirty
	}
	return last, MissClean
}

// Entry returns the packed tag word at handle (layout: EntryValid,
// EntryDirty, EntryLLCOwned below the tag; see PackEntry).
func (c *Assoc) Entry(handle uint64) uint64 { return c.entries[handle] }

// Store writes the packed tag word w at handle. install marks a new
// occupant: with Ways>1 it replaces the entry at handle and becomes the
// set's most recent, shifting the ways before handle down one. A hit
// was already made most recent by Probe, so a flag update writes in
// place. With Ways>1, w must be valid: only Reset invalidates, which
// keeps each set's valid ways a prefix.
func (c *Assoc) Store(handle, w uint64, install bool) {
	if c.ways == 1 || !install {
		c.entries[handle] = w
		return
	}
	c.installAt(handle, w)
}

// installAt moves w into way 0 of handle's set, shifting the ways
// before handle down one; the entry at handle drops out.
func (c *Assoc) installAt(handle, w uint64) {
	base := c.waysDiv.Div(handle) * c.ways
	copy(c.entries[base+1:handle+1], c.entries[base:handle])
	c.entries[base] = w
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

// StampSeqRun leaves the tag state a walk over count consecutive lines
// would leave when every visit installs with the given flags: the first
// line maps to set with tag, and the tag increments at each set-index
// wrap. Direct mapped, each line overwrites its set's one word. With
// Ways>1, count is at most Lines, and each set gets its k visits'
// words most-recent-first ahead of its previous first Ways-k ways.
func (c *Assoc) StampSeqRun(set uint64, tag uint32, count, flags uint64) {
	if c.ways == 1 {
		// One packed-word store per set, with the tag carry folded
		// into the wrap branch.
		w := packEntry(tag, flags)
		for i := uint64(0); i < count; i++ {
			c.entries[set] = w
			set++
			if set == c.sets {
				set = 0
				tag++
				w = packEntry(tag, flags)
			}
		}
		return
	}
	q, r := c.setsDiv.DivMod(count)
	for j := uint64(0); j < min(count, c.sets); j++ {
		k := q
		if j < r {
			k++
		}
		ways := c.entries[set*c.ways : (set+1)*c.ways]
		copy(ways[k:], ways[:c.ways-k])
		for m := uint64(0); m < k; m++ {
			ways[k-1-m] = packEntry(tag+uint32(m), flags)
		}
		set++
		if set == c.sets {
			set = 0
			tag++
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

// Reset invalidates every entry, returning the tag store to its
// as-constructed state without allocating.
func (c *Assoc) Reset() { clear(c.entries) }
