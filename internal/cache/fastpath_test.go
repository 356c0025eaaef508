package cache

import (
	"math/rand"
	"testing"

	"twolm/internal/mem"
)

// TestAssocDirectMappedEquivalence proves the Ways==1 specialized
// Probe/Install path (which skips the way loop and the LRU stamp
// clock) classifies every access and reconstructs every victim exactly
// like the independent DirectMapped implementation, over a long random
// op stream on a non-power-of-two set count.
func TestAssocDirectMappedEquivalence(t *testing.T) {
	const capacity = 528 * mem.Line // non-power-of-two sets
	assoc, err := NewAssoc(capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := New(capacity)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		addr := uint64(rng.Intn(4*528)) * mem.Line
		h, aRes := assoc.Probe(addr)
		set, tag, dRes := dm.Lookup(addr)
		if aRes != dRes {
			t.Fatalf("op %d addr %#x: Assoc %v, DirectMapped %v", i, addr, aRes, dRes)
		}
		if h != set {
			t.Fatalf("op %d addr %#x: handle %d != set %d", i, addr, h, set)
		}
		aVic, aOK := assoc.VictimAddr(h)
		dVic, dOK := dm.VictimAddr(set)
		if aVic != dVic || aOK != dOK {
			t.Fatalf("op %d addr %#x: victim %#x/%v != %#x/%v", i, addr, aVic, aOK, dVic, dOK)
		}
		switch rng.Intn(4) {
		case 0: // install on miss
			if aRes != Hit {
				install(assoc, h, addr)
				dm.Insert(set, tag)
			}
		case 1:
			if aRes == Hit {
				setFlags(assoc, h, EntryDirty)
				dm.MarkDirty(set)
			}
		case 2:
			if aRes == Hit {
				assoc.Store(h, 0, false)
				dm.Invalidate(set)
			}
		case 3:
			own := rng.Intn(2) == 0
			if own {
				setFlags(assoc, h, EntryLLCOwned)
			} else {
				assoc.Store(h, assoc.Entry(h)&^EntryLLCOwned, false)
			}
			dm.SetLLCOwned(set, own)
		}
		if assoc.IsDirty(h) != dm.IsDirty(set) || owned(assoc, h) != dm.LLCOwned(set) {
			t.Fatalf("op %d addr %#x: flag state diverged", i, addr)
		}
	}
	if assoc.DirtyLines() != dm.DirtyLines() || assoc.ValidLines() != dm.ValidLines() {
		t.Fatalf("aggregate state diverged: dirty %d/%d valid %d/%d",
			assoc.DirtyLines(), dm.DirtyLines(), assoc.ValidLines(), dm.ValidLines())
	}
}

// TestAssocWaysMatrixVictims cross-checks the reciprocal-based
// index/VictimAddr round trip at several associativities and
// non-power-of-two set counts.
func TestAssocWaysMatrixVictims(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 4, 8} {
		c, err := NewAssoc(uint64(ways)*528*mem.Line, ways)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(ways)))
		for i := 0; i < 50000; i++ {
			addr := uint64(rng.Intn(8*528*ways)) * mem.Line
			h, res := c.Probe(addr)
			if res != Hit {
				install(c, h, addr)
			}
			got, ok := c.VictimAddr(h)
			if !ok || got != addr {
				t.Fatalf("ways %d: VictimAddr after install of %#x = %#x, %v", ways, addr, got, ok)
			}
		}
	}
}
