package cache

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"twolm/internal/mem"
)

func newAssoc(t *testing.T, capacity uint64, ways int) *Assoc {
	t.Helper()
	c, err := NewAssoc(capacity, ways)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// install places addr's line at handle in the clean, unowned state —
// the tag-word change the controller's fill makes.
func install(c *Assoc, h, addr uint64) {
	_, tag := c.Index(addr)
	c.Store(h, PackEntry(tag, EntryValid), true)
}

// fill installs addr's line at the miss handle h and returns the handle
// the line occupies afterwards, found by probing it again: with Ways>1
// an install moves the line to its set's most recent way.
func fill(t *testing.T, c *Assoc, h, addr uint64) uint64 {
	t.Helper()
	install(c, h, addr)
	h2, res := c.Probe(addr)
	if res != Hit {
		t.Fatalf("probe of %#x after install = %v", addr, res)
	}
	return h2
}

// setFlags ORs flags into the word at handle.
func setFlags(c *Assoc, h, flags uint64) { c.Store(h, c.Entry(h)|flags, false) }

// owned reports the LLC-owned flag at handle.
func owned(c *Assoc, h uint64) bool { return c.Entry(h)&EntryLLCOwned != 0 }

func TestNewAssocValidation(t *testing.T) {
	if _, err := NewAssoc(mem.KiB, 0); err == nil {
		t.Error("0 ways accepted")
	}
	if _, err := NewAssoc(0, 1); err == nil {
		t.Error("0 capacity accepted")
	}
	if _, err := NewAssoc(100, 1); err == nil {
		t.Error("non-line-multiple capacity accepted")
	}
	if _, err := NewAssoc(mem.KiB, 3); err == nil {
		// 1 KiB = 16 lines, not a multiple of 3 ways.
		t.Error("non-dividing ways accepted")
	}
	c := newAssoc(t, 4*mem.KiB, 4)
	if c.Sets() != 16 || c.Ways() != 4 || c.Lines() != 64 || c.Capacity() != 4*mem.KiB {
		t.Errorf("sets=%d ways=%d lines=%d capacity=%d", c.Sets(), c.Ways(), c.Lines(), c.Capacity())
	}
}

func TestAssocHitAfterInstall(t *testing.T) {
	c := newAssoc(t, mem.KiB, 2)
	addr := uint64(5 * mem.Line)
	h, res := c.Probe(addr)
	if res != MissClean {
		t.Fatalf("cold probe = %v", res)
	}
	h = fill(t, c, h, addr)
	if got, ok := c.VictimAddr(h); !ok || got != addr {
		t.Fatalf("line at hit handle %d = %#x, %v; want %#x", h, got, ok, addr)
	}
}

// TestAssocConflictsAbsorbed: a 2-way cache holds two aliasing lines
// where the direct-mapped cache would thrash — the paper's
// inflexibility finding, inverted.
func TestAssocConflictsAbsorbed(t *testing.T) {
	dm := newAssoc(t, mem.KiB, 1)
	tw := newAssoc(t, mem.KiB, 2)

	a := uint64(3 * mem.Line)
	// Aliases must be computed per-geometry: sets differ with ways.
	aliasOf := func(c *Assoc, addr uint64) uint64 { return addr + c.Sets()*mem.Line }

	// Direct mapped: installing the alias evicts the original.
	h, _ := dm.Probe(a)
	install(dm, h, a)
	h2, _ := dm.Probe(aliasOf(dm, a))
	install(dm, h2, aliasOf(dm, a))
	if _, res := dm.Probe(a); res == Hit {
		t.Error("direct-mapped cache kept both aliases")
	}

	// Two way: both fit.
	h, _ = tw.Probe(a)
	install(tw, h, a)
	h2, _ = tw.Probe(aliasOf(tw, a))
	install(tw, h2, aliasOf(tw, a))
	if _, res := tw.Probe(a); res != Hit {
		t.Error("2-way cache evicted the first alias")
	}
	if _, res := tw.Probe(aliasOf(tw, a)); res != Hit {
		t.Error("2-way cache lost the second alias")
	}
}

// TestAssocLRUReplacement: the least recently used way is evicted.
func TestAssocLRUReplacement(t *testing.T) {
	c := newAssoc(t, mem.KiB, 2) // 8 sets
	alias := func(n uint64) uint64 { return n * c.Sets() * mem.Line }

	h, _ := c.Probe(alias(0))
	install(c, h, alias(0))
	h, _ = c.Probe(alias(1))
	install(c, h, alias(1))
	// Touch alias(0) so alias(1) becomes LRU.
	if _, res := c.Probe(alias(0)); res != Hit {
		t.Fatal("lost alias(0)")
	}
	// Install a third alias: it must evict alias(1).
	h, res := c.Probe(alias(2))
	if res == Hit {
		t.Fatal("phantom hit")
	}
	if victim, ok := c.VictimAddr(h); !ok || victim != alias(1) {
		t.Errorf("victim = %#x, want %#x (the LRU way)", victim, alias(1))
	}
	install(c, h, alias(2))
	if _, res := c.Probe(alias(0)); res != Hit {
		t.Error("MRU way was evicted")
	}
}

// TestAssocPrefersInvalidWay: misses fill empty ways before evicting.
func TestAssocPrefersInvalidWay(t *testing.T) {
	c := newAssoc(t, mem.KiB, 4)
	alias := func(n uint64) uint64 { return n * c.Sets() * mem.Line }
	for n := uint64(0); n < 4; n++ {
		h, res := c.Probe(alias(n))
		if res != MissClean {
			t.Fatalf("fill %d: %v (must use the invalid way)", n, res)
		}
		if _, ok := c.VictimAddr(h); ok {
			t.Fatalf("fill %d displaced a valid line", n)
		}
		install(c, h, alias(n))
	}
	// All four resident.
	for n := uint64(0); n < 4; n++ {
		if _, res := c.Probe(alias(n)); res != Hit {
			t.Errorf("alias %d evicted during fill", n)
		}
	}
}

func TestAssocDirtyVictim(t *testing.T) {
	c := newAssoc(t, mem.KiB, 1)
	addr := uint64(0)
	h, _ := c.Probe(addr)
	install(c, h, addr)
	setFlags(c, h, EntryDirty)
	if !c.IsDirty(h) {
		t.Fatal("setting the dirty flag had no effect")
	}
	if _, res := c.Probe(addr + c.Sets()*mem.Line); res != MissDirty {
		t.Errorf("alias probe = %v, want miss-dirty", res)
	}
	c.Store(h, 0, false)
	if c.IsDirty(h) || c.ValidLines() != 0 {
		t.Error("storing an invalid word left state")
	}
}

func TestAssocVictimAddrRoundTrip(t *testing.T) {
	c := newAssoc(t, 4*mem.KiB, 4)
	f := func(lineRaw uint16) bool {
		addr := uint64(lineRaw) << mem.LineShift
		h, res := c.Probe(addr)
		if res != Hit {
			h = fill(t, c, h, addr)
		}
		got, ok := c.VictimAddr(h)
		return ok && got == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAssocOwnedFlag(t *testing.T) {
	c := newAssoc(t, mem.KiB, 2)
	h, _ := c.Probe(0)
	install(c, h, 0)
	if owned(c, h) {
		t.Error("fresh line owned")
	}
	setFlags(c, h, EntryLLCOwned)
	if !owned(c, h) {
		t.Error("setting the owned flag had no effect")
	}
	c.Store(h, c.Entry(h)&^EntryLLCOwned, false)
	if owned(c, h) {
		t.Error("clearing the owned flag had no effect")
	}
}

// TestAssocInstallClearsStaleFlags: re-allocating a slot must drop the
// victim's dirty and LLC-owned bits — a stale owned bit on the new
// occupant would let the IMC's Dirty Data Optimization skip a tag check
// for a line the on-chip hierarchy never acquired.
func TestAssocInstallClearsStaleFlags(t *testing.T) {
	c := newAssoc(t, mem.KiB, 1)
	victim := uint64(3 * mem.Line)
	h, _ := c.Probe(victim)
	install(c, h, victim)
	setFlags(c, h, EntryDirty)
	setFlags(c, h, EntryLLCOwned)

	// Conflicting install replaces the victim in the same slot.
	conflicting := victim + c.Sets()*mem.Line
	h2, res := c.Probe(conflicting)
	if h2 != h || res != MissDirty {
		t.Fatalf("conflict probe = handle %d res %v, want handle %d miss-dirty", h2, res, h)
	}
	install(c, h2, conflicting)
	if owned(c, h2) {
		t.Error("install preserved the victim's LLC-owned bit")
	}
	if c.IsDirty(h2) {
		t.Error("install preserved the victim's dirty bit")
	}
}

// dirtyAddrs returns the address of every valid dirty line of c.
func dirtyAddrs(c *Assoc) map[uint64]bool {
	got := map[uint64]bool{}
	for h := range c.entries {
		if c.IsDirty(uint64(h)) {
			if addr, ok := c.VictimAddr(uint64(h)); ok {
				got[addr] = true
			}
		}
	}
	return got
}

func TestAssocDirtyLinesAndReset(t *testing.T) {
	c := newAssoc(t, mem.KiB, 2)
	want := map[uint64]bool{}
	for i := uint64(0); i < 6; i++ {
		addr := i * mem.Line
		h, _ := c.Probe(addr)
		h = fill(t, c, h, addr)
		if i%2 == 0 {
			setFlags(c, h, EntryDirty)
			want[addr] = true
		}
	}
	got := dirtyAddrs(c)
	if len(got) != len(want) {
		t.Fatalf("%d dirty lines, want %d", len(got), len(want))
	}
	for a := range want {
		if !got[a] {
			t.Errorf("missing dirty line %#x", a)
		}
	}
	if c.DirtyLines() != uint64(len(want)) || c.ValidLines() != 6 {
		t.Errorf("DirtyLines = %d, ValidLines = %d", c.DirtyLines(), c.ValidLines())
	}
	c.Reset()
	if c.ValidLines() != 0 || c.DirtyLines() != 0 {
		t.Error("Reset left lines")
	}
}

// stampLRU is the reference model of Assoc's replacement: each way
// carries the clock value of its last install or hit, and a miss
// evicts the first invalid way, else the way with the oldest stamp.
// Assoc keeps the same LRU state as the order of its ways instead.
type stampLRU struct {
	sets, ways uint64
	entries    []uint64
	stamps     []uint64
	clock      uint64
}

func newStampLRU(sets, ways uint64) *stampLRU {
	return &stampLRU{sets: sets, ways: ways,
		entries: make([]uint64, sets*ways), stamps: make([]uint64, sets*ways)}
}

func (m *stampLRU) probe(addr uint64) (handle uint64, res LookupResult) {
	line := addr >> mem.LineShift
	set, tag := line%m.sets, uint32(line/m.sets)
	base := set * m.ways
	victim, victimStamp := base, ^uint64(0)
	for h := base; h < base+m.ways; h++ {
		w := m.entries[h]
		if w&EntryValid == 0 {
			if victimStamp != 0 {
				victim, victimStamp = h, 0
			}
			continue
		}
		if EntryTagOf(w) == tag {
			m.clock++
			m.stamps[h] = m.clock
			return h, Hit
		}
		if m.stamps[h] < victimStamp {
			victim, victimStamp = h, m.stamps[h]
		}
	}
	switch w := m.entries[victim]; {
	case w&EntryValid == 0 || w&EntryDirty == 0:
		return victim, MissClean
	default:
		return victim, MissDirty
	}
}

func (m *stampLRU) store(handle, w uint64, install bool) {
	m.entries[handle] = w
	if install {
		m.clock++
		m.stamps[handle] = m.clock
	}
}

func (m *stampLRU) victimAddr(handle uint64) (uint64, bool) {
	w := m.entries[handle]
	if w&EntryValid == 0 {
		return 0, false
	}
	return (uint64(EntryTagOf(w))*m.sets + handle/m.ways) << mem.LineShift, true
}

// TestAssocMatchesStampLRU runs random probe/install/flag-update
// programs through Assoc and the stamp-clock reference at several
// associativities, on few sets so most probes conflict, and demands the
// same result, victim address, dirty bit and word at every probe, and
// the same dirty lines at the end. Direct mapped, the programs also
// invalidate hits (what the on-chip LLC does for a nontemporal store;
// with Ways>1 only Reset invalidates), and the handle must be the set.
func TestAssocMatchesStampLRU(t *testing.T) {
	const sets = 5
	for _, ways := range []uint64{1, 2, 3, 4, 8} {
		c := newAssoc(t, sets*ways*mem.Line, int(ways))
		ref := newStampLRU(sets, ways)
		rng := rand.New(rand.NewSource(int64(ways)))
		for i := 0; i < 200000; i++ {
			addr := uint64(rng.Intn(int(3*sets*ways))) << mem.LineShift
			h, res := c.Probe(addr)
			rh, rres := ref.probe(addr)
			va, vok := c.VictimAddr(h)
			ra, rok := ref.victimAddr(rh)
			refDirty := ref.entries[rh]&(EntryValid|EntryDirty) == EntryValid|EntryDirty
			if res != rres || va != ra || vok != rok || c.IsDirty(h) != refDirty || c.Entry(h) != ref.entries[rh] {
				t.Fatalf("ways %d op %d addr %#x: Assoc %v victim %#x/%v word %#x, reference %v victim %#x/%v word %#x",
					ways, i, addr, res, va, vok, c.Entry(h), rres, ra, rok, ref.entries[rh])
			}
			if ways == 1 && h != rh {
				t.Fatalf("op %d addr %#x: handle %d, want set %d", i, addr, h, rh)
			}
			switch op := rng.Intn(4); {
			case res != Hit && op < 3:
				_, tag := c.Index(addr)
				w := PackEntry(tag, EntryValid|uint64(rng.Intn(4))<<1)
				c.Store(h, w, true)
				ref.store(rh, w, true)
			case res == Hit && op < 2:
				w := c.Entry(h) | EntryDirty
				if op == 1 {
					w &^= EntryLLCOwned
				} else {
					w |= EntryLLCOwned
				}
				c.Store(h, w, false)
				ref.store(rh, w, false)
			case res == Hit && op == 3 && ways == 1:
				c.Store(h, 0, false)
				ref.store(rh, 0, false)
			}
		}
		got, want := dirtyAddrs(c), map[uint64]bool{}
		for h := range ref.entries {
			if ref.entries[h]&EntryDirty != 0 {
				a, _ := ref.victimAddr(uint64(h))
				want[a] = true
			}
		}
		if !maps.Equal(got, want) || c.ValidLines() != uint64(countValid(ref.entries)) {
			t.Errorf("ways %d: final dirty lines %v, reference %v", ways, got, want)
		}
	}
}

func countValid(entries []uint64) (n int) {
	for _, w := range entries {
		if w&EntryValid != 0 {
			n++
		}
	}
	return n
}
