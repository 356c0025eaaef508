package cache

import (
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
	if _, err := NewAssoc(mem.KiB, 3); err == nil {
		// 1 KiB = 16 lines, not a multiple of 3 ways.
		t.Error("non-dividing ways accepted")
	}
	c := newAssoc(t, 4*mem.KiB, 4)
	if c.Sets() != 16 || c.Ways() != 4 || c.Lines() != 64 {
		t.Errorf("sets=%d ways=%d lines=%d", c.Sets(), c.Ways(), c.Lines())
	}
}

func TestAssocHitAfterInstall(t *testing.T) {
	c := newAssoc(t, mem.KiB, 2)
	addr := uint64(5 * mem.Line)
	h, res := c.Probe(addr)
	if res != MissClean {
		t.Fatalf("cold probe = %v", res)
	}
	install(c, h, addr)
	h2, res := c.Probe(addr)
	if res != Hit || h2 != h {
		t.Fatalf("probe after install = %v at %d (installed at %d)", res, h2, h)
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
		h, _ := c.Probe(addr)
		install(c, h, addr)
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

func TestAssocForEachDirtyAndReset(t *testing.T) {
	c := newAssoc(t, mem.KiB, 2)
	want := map[uint64]bool{}
	for i := uint64(0); i < 6; i++ {
		addr := i * mem.Line
		h, _ := c.Probe(addr)
		install(c, h, addr)
		if i%2 == 0 {
			setFlags(c, h, EntryDirty)
			want[addr] = true
		}
	}
	got := map[uint64]bool{}
	c.ForEachDirty(func(addr uint64) { got[addr] = true })
	if len(got) != len(want) {
		t.Fatalf("ForEachDirty visited %d lines, want %d", len(got), len(want))
	}
	for a := range want {
		if !got[a] {
			t.Errorf("missing dirty line %#x", a)
		}
	}
	if c.DirtyLines() != uint64(len(want)) {
		t.Errorf("DirtyLines = %d", c.DirtyLines())
	}
	c.Reset()
	if c.ValidLines() != 0 || c.DirtyLines() != 0 {
		t.Error("Reset left lines")
	}
}

// TestWays1MatchesDirectMapped: the degenerate Assoc behaves exactly
// like the DirectMapped implementation on a shared random workload.
func TestWays1MatchesDirectMapped(t *testing.T) {
	dm := newCache(t, 2*mem.KiB)
	as := newAssoc(t, 2*mem.KiB, 1)
	// Same geometry.
	if dm.Sets() != as.Sets() {
		t.Fatalf("geometries differ: %d vs %d sets", dm.Sets(), as.Sets())
	}
	seed := uint64(12345)
	for i := 0; i < 5000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		addr := (seed % (64 * dm.Sets())) * mem.Line
		write := seed&(1<<63) != 0

		_, _, dres := dm.Lookup(addr)
		ah, ares := as.Probe(addr)
		if dres != ares {
			t.Fatalf("op %d: results diverge: dm=%v assoc=%v", i, dres, ares)
		}
		if dres != Hit {
			set, tag := dm.Index(addr)
			dm.Insert(set, tag)
			install(as, ah, addr)
		}
		if write {
			set, _ := dm.Index(addr)
			dm.MarkDirty(set)
			setFlags(as, ah, EntryDirty)
		}
	}
	if dm.DirtyLines() != as.DirtyLines() || dm.ValidLines() != as.ValidLines() {
		t.Errorf("final states diverge: dirty %d/%d valid %d/%d",
			dm.DirtyLines(), as.DirtyLines(), dm.ValidLines(), as.ValidLines())
	}
}
