package cache

import (
	"testing"
	"testing/quick"

	"twolm/internal/mem"
)

// TestIndexRoundTrip: the reciprocal set/tag split inverts exactly on
// a non-power-of-two set count, for line numbers up to 2^32.
func TestIndexRoundTrip(t *testing.T) {
	for _, ways := range []int{1, 4} {
		c := newAssoc(t, uint64(ways)*528*mem.Line, ways)
		f := func(lineRaw uint32) bool {
			addr := uint64(lineRaw) << mem.LineShift
			set, tag := c.Index(addr)
			reconstructed := (uint64(tag)*c.Sets() + set) << mem.LineShift
			return reconstructed == addr && set < c.Sets()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("ways %d: %v", ways, err)
		}
	}
}

// TestHitAfterInsert: a word installed through DirectEntries, as
// core's LLC step installs, is a hit for Probe at the set's handle;
// with Ways>1 there is no direct word array.
func TestHitAfterInsert(t *testing.T) {
	c := newAssoc(t, 33*mem.Line, 1)
	addr := uint64(40 * mem.Line) // set 7, tag 1
	set, tag := c.Index(addr)
	c.DirectEntries()[set] = PackEntry(tag, EntryValid|EntryDirty)
	h, res := c.Probe(addr)
	if res != Hit || h != set || !c.IsDirty(h) {
		t.Errorf("probe after word install = handle %d %v dirty %v, want handle %d hit dirty", h, res, c.IsDirty(h), set)
	}
	if got, ok := c.VictimAddr(h); !ok || got != addr {
		t.Errorf("VictimAddr = %#x, %v; want %#x, true", got, ok, addr)
	}
	if newAssoc(t, 32*mem.Line, 2).DirectEntries() != nil {
		t.Error("2-way store exposed a direct word array")
	}
}

// TestInvalidate: zeroing a dirty word through DirectEntries, as core's
// nontemporal-store step does, leaves a clean miss with no victim and
// no valid or dirty line.
func TestInvalidate(t *testing.T) {
	c := newAssoc(t, mem.KiB, 1)
	h, _ := c.Probe(0)
	install(c, h, 0)
	setFlags(c, h, EntryDirty)
	c.DirectEntries()[h] = 0
	if _, res := c.Probe(0); res != MissClean {
		t.Errorf("probe after invalidate = %v, want miss-clean", res)
	}
	if _, ok := c.VictimAddr(h); ok || c.IsDirty(h) || c.ValidLines() != 0 || c.DirtyLines() != 0 {
		t.Error("invalidate left a valid or dirty line")
	}
}

// TestFullCoverageNoAliasing: filling exactly the capacity with a
// contiguous array leaves every probe a hit (the paper's 51 GiB-array
// hit benchmark relies on this), whether the lines are installed one by
// one or stamped by one StampSeqRun that wraps the set index.
func TestFullCoverageNoAliasing(t *testing.T) {
	const base = 5 * mem.Line
	for _, ways := range []int{1, 2, 4} {
		for _, stamp := range []bool{false, true} {
			c := newAssoc(t, uint64(ways)*33*mem.Line, ways)
			lines := c.Lines()
			if stamp {
				set, tag := c.Index(base)
				c.StampSeqRun(set, tag, lines, EntryValid)
			} else {
				for i := uint64(0); i < lines; i++ {
					addr := base + i*mem.Line
					if h, res := c.Probe(addr); res != Hit {
						install(c, h, addr)
					}
				}
			}
			for i := uint64(0); i < lines; i++ {
				if _, res := c.Probe(base + i*mem.Line); res != Hit {
					t.Fatalf("ways %d stamp %v: line %d: %v, want hit", ways, stamp, i, res)
				}
			}
		}
	}
}

func TestLookupResultString(t *testing.T) {
	if Hit.String() != "hit" || MissClean.String() != "miss-clean" || MissDirty.String() != "miss-dirty" {
		t.Error("unexpected LookupResult strings")
	}
	if LookupResult(9).String() == "" {
		t.Error("unknown result should render")
	}
}
