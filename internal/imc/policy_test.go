package imc

import (
	"testing"

	"twolm/internal/cache"
	"twolm/internal/dram"
	"twolm/internal/mem"
	"twolm/internal/nvram"
)

// newPolicyController builds a controller with the given policy.
func newPolicyController(t *testing.T, cacheCapacity uint64, p Policy) *Controller {
	t.Helper()
	d, err := dram.New(6, cacheCapacity)
	if err != nil {
		t.Fatal(err)
	}
	n, err := nvram.New(6, 64*cacheCapacity)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(d, n, WithPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHardwarePolicyDefaults(t *testing.T) {
	p := HardwarePolicy()
	if p.Ways != 1 || !p.WriteAllocate || !p.ReadAllocate || p.DisableDDO {
		t.Errorf("unexpected hardware policy: %+v", p)
	}
}

// TestInvalidWaysRejected: a zero or negative associativity is a config
// typo and must be an error, not a silent rewrite to direct mapped.
func TestInvalidWaysRejected(t *testing.T) {
	d, err := dram.New(6, mem.KiB)
	if err != nil {
		t.Fatal(err)
	}
	n, err := nvram.New(6, 64*mem.KiB)
	if err != nil {
		t.Fatal(err)
	}
	for _, ways := range []int{0, -1, -8} {
		p := HardwarePolicy()
		p.Ways = ways
		if c, err := New(d, n, WithPolicy(p)); err == nil {
			t.Errorf("Ways=%d: New returned a %d-way controller, want error", ways, c.Cache.Ways())
		}
	}
}

// TestNoWriteAllocate: a write miss under write-around costs 1 DRAM
// read (tag check) + 1 NVRAM write, amplification 2, and disturbs
// nothing.
func TestNoWriteAllocate(t *testing.T) {
	p := HardwarePolicy()
	p.WriteAllocate = false
	c := newPolicyController(t, mem.KiB, p)
	addr := uint64(2 * mem.Line)
	d := delta(c, func() {
		res, ddo := c.LLCWrite(addr)
		if res == cache.Hit || ddo {
			t.Fatalf("expected plain miss, got %v ddo=%v", res, ddo)
		}
	})
	want := Counters{DRAMRead: 1, NVRAMWrite: 1, TagMissClean: 1, LLCWrite: 1}
	if d != want {
		t.Errorf("write-around miss = {%v}, want {%v}", d, want)
	}
	if amp := d.Amplification(); amp != 2 {
		t.Errorf("amplification = %.1f, want 2 (vs 4-5 with write-allocate)", amp)
	}
	// The line must NOT be cached.
	if _, res := c.Cache.Probe(addr); res == cache.Hit {
		t.Error("write-around inserted the line")
	}
}

// TestNoWriteAllocatePreservesVictim: write-around must not write back
// or evict the aliasing occupant.
func TestNoWriteAllocatePreservesVictim(t *testing.T) {
	p := HardwarePolicy()
	p.WriteAllocate = false
	c := newPolicyController(t, mem.KiB, p)
	victim := uint64(2 * mem.Line)
	c.LLCRead(victim) // insert clean occupant (read-allocate still on)
	before := c.Counters()
	c.LLCWrite(alias(c, victim, 1))
	d := c.Counters().Sub(before)
	if d.NVRAMRead != 0 {
		t.Error("write-around fetched the line")
	}
	if _, res := c.Cache.Probe(victim); res != cache.Hit {
		t.Error("write-around evicted the victim")
	}
}

// TestNoReadAllocate: a read miss without allocation costs 1 DRAM read
// + 1 NVRAM read, amplification 2, uncached.
func TestNoReadAllocate(t *testing.T) {
	p := HardwarePolicy()
	p.ReadAllocate = false
	c := newPolicyController(t, mem.KiB, p)
	addr := uint64(2 * mem.Line)
	d := delta(c, func() { c.LLCRead(addr) })
	want := Counters{DRAMRead: 1, NVRAMRead: 1, TagMissClean: 1, LLCRead: 1}
	if d != want {
		t.Errorf("no-allocate read miss = {%v}, want {%v}", d, want)
	}
	if _, res := c.Cache.Probe(addr); res == cache.Hit {
		t.Error("no-allocate read inserted the line")
	}
	// A repeat read misses again (nothing was cached).
	d = delta(c, func() { c.LLCRead(addr) })
	if d.NVRAMRead != 1 {
		t.Error("repeat read should miss again")
	}
}

// TestBypassOverDirtyReportsClean: a no-read-allocate read or a
// write-around write that misses over a dirty resident line disturbs no
// victim, so LLCRead/LLCWrite report the clean miss the counters record
// and the resident dirty word is left exactly as it was.
func TestBypassOverDirtyReportsClean(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy func(*Policy)
		dirty  func(c *Controller, addr uint64)
		access func(c *Controller, addr uint64) cache.LookupResult
	}{
		{
			name:   "no-read-allocate read",
			policy: func(p *Policy) { p.ReadAllocate = false },
			dirty:  func(c *Controller, addr uint64) { c.LLCWrite(addr) },
			access: func(c *Controller, addr uint64) cache.LookupResult { return c.LLCRead(addr) },
		},
		{
			name:   "write-around write",
			policy: func(p *Policy) { p.WriteAllocate = false },
			dirty: func(c *Controller, addr uint64) {
				c.LLCRead(addr)
				c.LLCWrite(addr)
			},
			access: func(c *Controller, addr uint64) cache.LookupResult {
				res, ddo := c.LLCWrite(addr)
				if ddo {
					t.Error("write-around miss reported ddo")
				}
				return res
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := HardwarePolicy()
			tc.policy(&p)
			c := newPolicyController(t, mem.KiB, p)
			victim := uint64(2 * mem.Line)
			tc.dirty(c, victim)
			h, res := c.Cache.Probe(victim)
			if res != cache.Hit || !c.Cache.IsDirty(h) {
				t.Fatalf("setup: victim probe = %v, dirty %v; want a dirty hit", res, c.Cache.IsDirty(h))
			}
			word := c.Cache.Entry(h)
			if got := tc.access(c, alias(c, victim, 1)); got != cache.MissClean {
				t.Errorf("aliasing access returned %v, want MissClean", got)
			}
			if got := c.Cache.Entry(h); got != word {
				t.Errorf("resident word %#x changed to %#x", word, got)
			}
		})
	}
}

// TestAssociativityAbsorbsAliasingWrites: 2 ways hold two dirty
// aliases that thrash a direct-mapped cache — quantifying the paper's
// limitation #1.
func TestAssociativityAbsorbsAliasingWrites(t *testing.T) {
	run := func(ways int) Counters {
		p := HardwarePolicy()
		p.Ways = ways
		c := newPolicyController(t, mem.KiB, p)
		a := uint64(2 * mem.Line)
		// addr + capacity lands in the same set with a different tag
		// for any associativity.
		b := a + c.Cache.Capacity()
		for i := 0; i < 16; i++ {
			c.LLCWrite(a)
			c.LLCWrite(b)
		}
		return c.Counters()
	}
	dm := run(1)
	tw := run(2)
	if dm.TagMissDirty == 0 {
		t.Fatal("direct-mapped alias ping-pong produced no dirty misses")
	}
	if tw.TagMissDirty != 0 {
		t.Errorf("2-way cache still dirty-missed %d times", tw.TagMissDirty)
	}
	if tw.NVRAMWrite >= dm.NVRAMWrite {
		t.Errorf("associativity did not reduce NVRAM writes: %d vs %d", tw.NVRAMWrite, dm.NVRAMWrite)
	}
}

// TestPolicyAccessor round trips.
func TestPolicyAccessor(t *testing.T) {
	p := Policy{Ways: 4, WriteAllocate: true, ReadAllocate: false, DisableDDO: true}
	c := newPolicyController(t, mem.KiB, p)
	if got := c.Policy(); got != p {
		t.Errorf("Policy() = %+v, want %+v", got, p)
	}
}
