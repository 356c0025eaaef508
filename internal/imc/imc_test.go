package imc

import (
	"math/rand"
	"testing"

	"twolm/internal/cache"
	"twolm/internal/dram"
	"twolm/internal/mem"
	"twolm/internal/nvram"
)

// newController builds a controller with a cacheCapacity-byte DRAM
// cache over a large NVRAM space.
func newController(t *testing.T, cacheCapacity uint64) *Controller {
	t.Helper()
	d, err := dram.New(6, cacheCapacity)
	if err != nil {
		t.Fatal(err)
	}
	n, err := nvram.New(6, 64*cacheCapacity)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(d, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// delta runs fn and returns the counter increments it caused.
func delta(c *Controller, fn func()) Counters {
	before := c.Counters()
	fn()
	return c.Counters().Sub(before)
}

// alias returns an address mapping to the same set as addr with a
// different tag.
func alias(c *Controller, addr uint64, n uint64) uint64 {
	return addr + n*c.Cache.Capacity()
}

// --- Table I: exact per-scenario transaction counts -------------------

// TestTable1ReadHit: LLC read hit = 1 DRAM read, amplification 1.
func TestTable1ReadHit(t *testing.T) {
	c := newController(t, mem.KiB)
	addr := uint64(2 * mem.Line)
	c.LLCRead(addr) // prime (miss)
	d := delta(c, func() {
		if res := c.LLCRead(addr); res != cache.Hit {
			t.Fatalf("expected hit, got %v", res)
		}
	})
	want := Counters{DRAMRead: 1, TagHit: 1, LLCRead: 1}
	if d != want {
		t.Errorf("read hit delta = {%v}, want {%v}", d, want)
	}
	if amp := d.Amplification(); amp != 1 {
		t.Errorf("amplification = %.1f, want 1", amp)
	}
}

// TestTable1ReadMissClean: 1 DRAM read + 1 NVRAM read + 1 DRAM write,
// amplification 3.
func TestTable1ReadMissClean(t *testing.T) {
	c := newController(t, mem.KiB)
	addr := uint64(2 * mem.Line)
	d := delta(c, func() {
		if res := c.LLCRead(addr); res != cache.MissClean {
			t.Fatalf("expected clean miss, got %v", res)
		}
	})
	want := Counters{DRAMRead: 1, DRAMWrite: 1, NVRAMRead: 1, TagMissClean: 1, LLCRead: 1}
	if d != want {
		t.Errorf("clean read miss delta = {%v}, want {%v}", d, want)
	}
	if amp := d.Amplification(); amp != 3 {
		t.Errorf("amplification = %.1f, want 3", amp)
	}
}

// TestTable1ReadMissDirty: clean-miss traffic + 1 NVRAM writeback,
// amplification 4.
func TestTable1ReadMissDirty(t *testing.T) {
	c := newController(t, mem.KiB)
	addr := uint64(2 * mem.Line)
	c.LLCWrite(addr) // prime a dirty occupant
	d := delta(c, func() {
		if res := c.LLCRead(alias(c, addr, 1)); res != cache.MissDirty {
			t.Fatalf("expected dirty miss, got %v", res)
		}
	})
	want := Counters{DRAMRead: 1, DRAMWrite: 1, NVRAMRead: 1, NVRAMWrite: 1, TagMissDirty: 1, LLCRead: 1}
	if d != want {
		t.Errorf("dirty read miss delta = {%v}, want {%v}", d, want)
	}
	if amp := d.Amplification(); amp != 4 {
		t.Errorf("amplification = %.1f, want 4", amp)
	}
}

// TestTable1WriteHit: a nontemporal-store hit (no prior LLC ownership)
// costs a tag-check DRAM read plus the data write, amplification 2.
func TestTable1WriteHit(t *testing.T) {
	c := newController(t, mem.KiB)
	addr := uint64(2 * mem.Line)
	c.LLCWrite(addr) // prime: dirty write miss inserts the line
	d := delta(c, func() {
		res, ddo := c.LLCWrite(addr)
		if res != cache.Hit || ddo {
			t.Fatalf("expected plain hit, got %v ddo=%v", res, ddo)
		}
	})
	want := Counters{DRAMRead: 1, DRAMWrite: 1, TagHit: 1, LLCWrite: 1}
	if d != want {
		t.Errorf("write hit delta = {%v}, want {%v}", d, want)
	}
	if amp := d.Amplification(); amp != 2 {
		t.Errorf("amplification = %.1f, want 2", amp)
	}
}

// TestTable1WriteMissClean: tag check + insert-on-miss (NVRAM read +
// DRAM write) + the actual data write: 1 DRAM read, 2 DRAM writes,
// 1 NVRAM read — amplification 4.
func TestTable1WriteMissClean(t *testing.T) {
	c := newController(t, mem.KiB)
	addr := uint64(2 * mem.Line)
	d := delta(c, func() {
		res, ddo := c.LLCWrite(addr)
		if res != cache.MissClean || ddo {
			t.Fatalf("expected clean miss, got %v ddo=%v", res, ddo)
		}
	})
	want := Counters{DRAMRead: 1, DRAMWrite: 2, NVRAMRead: 1, TagMissClean: 1, LLCWrite: 1}
	if d != want {
		t.Errorf("clean write miss delta = {%v}, want {%v}", d, want)
	}
	if amp := d.Amplification(); amp != 4 {
		t.Errorf("amplification = %.1f, want 4", amp)
	}
}

// TestTable1WriteMissDirty: the worst case — 5 memory accesses for one
// demand store ("a single demand request can require up to 5 memory
// accesses").
func TestTable1WriteMissDirty(t *testing.T) {
	c := newController(t, mem.KiB)
	addr := uint64(2 * mem.Line)
	c.LLCWrite(addr) // prime dirty occupant
	d := delta(c, func() {
		res, ddo := c.LLCWrite(alias(c, addr, 1))
		if res != cache.MissDirty || ddo {
			t.Fatalf("expected dirty miss, got %v ddo=%v", res, ddo)
		}
	})
	want := Counters{DRAMRead: 1, DRAMWrite: 2, NVRAMRead: 1, NVRAMWrite: 1, TagMissDirty: 1, LLCWrite: 1}
	if d != want {
		t.Errorf("dirty write miss delta = {%v}, want {%v}", d, want)
	}
	if amp := d.Amplification(); amp != 5 {
		t.Errorf("amplification = %.1f, want 5", amp)
	}
}

// TestTable1DDO: a writeback of a line the LLC acquired via a read
// skips the tag check — 1 DRAM write, amplification 1.
func TestTable1DDO(t *testing.T) {
	c := newController(t, mem.KiB)
	addr := uint64(2 * mem.Line)
	c.LLCRead(addr) // the RFO/load: grants LLC ownership
	d := delta(c, func() {
		res, ddo := c.LLCWrite(addr)
		if res != cache.Hit || !ddo {
			t.Fatalf("expected DDO hit, got %v ddo=%v", res, ddo)
		}
	})
	want := Counters{DRAMWrite: 1, TagHit: 1, DDO: 1, LLCWrite: 1}
	if d != want {
		t.Errorf("DDO delta = {%v}, want {%v}", d, want)
	}
	if amp := d.Amplification(); amp != 1 {
		t.Errorf("amplification = %.1f, want 1", amp)
	}
}

// TestDDOConsumedByWrite: a second writeback without a new read must
// pay the tag check again (ownership was released).
func TestDDOConsumedByWrite(t *testing.T) {
	c := newController(t, mem.KiB)
	addr := uint64(2 * mem.Line)
	c.LLCRead(addr)
	c.LLCWrite(addr) // DDO
	d := delta(c, func() {
		_, ddo := c.LLCWrite(addr)
		if ddo {
			t.Fatal("second writeback should not get DDO")
		}
	})
	if d.DRAMRead != 1 {
		t.Errorf("second writeback skipped the tag check: %v", d)
	}
}

// TestDDOInvalidatedByConflict: if the set is re-allocated between the
// read and the writeback, the optimization must not apply.
func TestDDOInvalidatedByConflict(t *testing.T) {
	c := newController(t, mem.KiB)
	addr := uint64(2 * mem.Line)
	c.LLCRead(addr)
	c.LLCRead(alias(c, addr, 1)) // conflict evicts addr
	d := delta(c, func() {
		res, ddo := c.LLCWrite(addr)
		if ddo {
			t.Fatal("DDO applied after the set was re-allocated")
		}
		if res == cache.Hit {
			t.Fatal("stale line still resident")
		}
	})
	if d.DRAMRead != 1 {
		t.Errorf("expected a tag check, got %v", d)
	}
}

// TestDDOStaleOwnershipAfterWriteConflict: the paper requires DDO only
// when the set "has not been re-allocated since" the LLC acquired the
// line. Here the re-allocation comes from a conflicting *write* miss:
// the later writeback of the evicted line must miss and pay the tag
// check, never the DDO fast path.
func TestDDOStaleOwnershipAfterWriteConflict(t *testing.T) {
	c := newController(t, mem.KiB)
	addr := uint64(2 * mem.Line)
	c.LLCRead(addr) // LLC acquires addr; ownership granted
	// Conflicting write miss re-allocates the set (install-on-miss).
	if res, _ := c.LLCWrite(alias(c, addr, 1)); res == cache.Hit {
		t.Fatal("conflicting write did not miss")
	}
	d := delta(c, func() {
		res, ddo := c.LLCWrite(addr)
		if ddo {
			t.Fatal("DDO applied to a line evicted by a conflicting install")
		}
		if res == cache.Hit {
			t.Fatal("evicted line still probes as resident")
		}
	})
	if d.DRAMRead != 1 {
		t.Errorf("writeback of evicted line skipped the tag check: %v", d)
	}
	if d.DDO != 0 {
		t.Errorf("DDO counter incremented: %v", d)
	}
}

// TestNoReadAllocateDoesNotGrantOwnership: with ReadAllocate off, a
// read miss forwards from NVRAM without installing — it must not mark
// the probe handle (some *other* resident line's slot) as LLC-owned,
// or that occupant's next writeback would falsely skip its tag check.
func TestNoReadAllocateDoesNotGrantOwnership(t *testing.T) {
	p := HardwarePolicy()
	p.ReadAllocate = false
	c := newPolicyController(t, mem.KiB, p)
	occupant := uint64(2 * mem.Line)
	c.LLCWrite(occupant) // write-allocate installs it, not LLC-owned
	// Uncached read of an alias probes the occupant's slot as victim.
	c.LLCRead(alias(c, occupant, 1))
	d := delta(c, func() {
		res, ddo := c.LLCWrite(occupant)
		if ddo {
			t.Fatal("occupant writeback took DDO after an unrelated no-allocate read")
		}
		if res != cache.Hit {
			t.Fatalf("occupant should still be resident, got %v", res)
		}
	})
	if d.DRAMRead != 1 {
		t.Errorf("occupant writeback skipped the tag check: %v", d)
	}
}

// TestDisableDDO: the ablation policy forces the full write-hit path.
func TestDisableDDO(t *testing.T) {
	p := HardwarePolicy()
	p.DisableDDO = true
	c := newPolicyController(t, mem.KiB, p)
	addr := uint64(2 * mem.Line)
	c.LLCRead(addr)
	d := delta(c, func() {
		_, ddo := c.LLCWrite(addr)
		if ddo {
			t.Fatal("DDO fired while disabled")
		}
	})
	want := Counters{DRAMRead: 1, DRAMWrite: 1, TagHit: 1, LLCWrite: 1}
	if d != want {
		t.Errorf("disabled-DDO write hit = {%v}, want {%v}", d, want)
	}
}

// TestRMWSequenceMatchesFig4c: dirty read miss followed by a DDO
// writeback — the paper's Figure 4c scenario: per demand pair,
// 1 DRAM read, 2 DRAM writes, 1 NVRAM read, 1 NVRAM write.
func TestRMWSequenceMatchesFig4c(t *testing.T) {
	c := newController(t, mem.KiB)
	// Prime: make the whole cache dirty.
	lines := c.Cache.Sets()
	for i := uint64(0); i < lines; i++ {
		c.LLCWrite(i * mem.Line)
	}
	// RMW over an aliasing array: load (dirty miss) ... writeback (DDO).
	d := delta(c, func() {
		for i := uint64(0); i < lines; i++ {
			addr := alias(c, i*mem.Line, 1)
			if res := c.LLCRead(addr); res != cache.MissDirty {
				t.Fatalf("line %d: expected dirty read miss, got %v", i, res)
			}
			if _, ddo := c.LLCWrite(addr); !ddo {
				t.Fatalf("line %d: expected DDO writeback", i)
			}
		}
	})
	n := lines
	want := Counters{
		DRAMRead: n, DRAMWrite: 2 * n, NVRAMRead: n, NVRAMWrite: n,
		TagMissDirty: n, TagHit: n, DDO: n, LLCRead: n, LLCWrite: n,
	}
	if d != want {
		t.Errorf("RMW deltas = {%v}, want {%v}", d, want)
	}
}

// --- consistency properties -------------------------------------------

// TestRandomStreamInvariants drives a random mix of reads and writes
// and checks global counter invariants that must hold for any stream.
func TestRandomStreamInvariants(t *testing.T) {
	c := newController(t, 4*mem.KiB)
	rng := rand.New(rand.NewSource(42))
	space := 16 * c.Cache.Capacity()
	const ops = 200000
	for i := 0; i < ops; i++ {
		addr := (rng.Uint64() % (space / mem.Line)) * mem.Line
		if rng.Intn(2) == 0 {
			c.LLCRead(addr)
		} else {
			c.LLCWrite(addr)
		}
	}
	ctr := c.Counters()

	if got := ctr.Demand(); got != ops {
		t.Errorf("demand = %d, want %d", got, ops)
	}
	// Every demand produces exactly one tag event.
	if got := ctr.TagAccesses(); got != ops {
		t.Errorf("tag events = %d, want %d", got, ops)
	}
	// NVRAM reads == misses (insert-on-miss).
	if ctr.NVRAMRead != ctr.TagMissClean+ctr.TagMissDirty {
		t.Errorf("NVRAM reads %d != misses %d", ctr.NVRAMRead, ctr.TagMissClean+ctr.TagMissDirty)
	}
	// NVRAM writes == dirty misses (plus nothing else pre-flush).
	if ctr.NVRAMWrite != ctr.TagMissDirty {
		t.Errorf("NVRAM writes %d != dirty misses %d", ctr.NVRAMWrite, ctr.TagMissDirty)
	}
	// DRAM device counters agree with IMC counters.
	if c.DRAM.TotalReads() != ctr.DRAMRead || c.DRAM.TotalWrites() != ctr.DRAMWrite {
		t.Errorf("DRAM device counters diverge from IMC: dev %d/%d vs imc %d/%d",
			c.DRAM.TotalReads(), c.DRAM.TotalWrites(), ctr.DRAMRead, ctr.DRAMWrite)
	}
	if c.NVRAM.TotalReads() != ctr.NVRAMRead || c.NVRAM.TotalWrites() != ctr.NVRAMWrite {
		t.Errorf("NVRAM device counters diverge from IMC")
	}
	// Amplification is bounded by Table I's extremes.
	if amp := ctr.Amplification(); amp < 1 || amp > 5 {
		t.Errorf("amplification %.2f outside [1, 5]", amp)
	}
}

// TestFlushAllWritesBackDirty: flushing writes exactly the dirty lines.
func TestFlushAllWritesBackDirty(t *testing.T) {
	c := newController(t, mem.KiB)
	for i := uint64(0); i < 8; i++ {
		c.LLCWrite(i * mem.Line) // dirty
	}
	for i := uint64(8); i < 12; i++ {
		c.LLCRead(i * mem.Line) // clean
	}
	dirty := c.Cache.DirtyLines()
	before := c.Counters().NVRAMWrite
	c.FlushAll()
	wrote := c.Counters().NVRAMWrite - before
	if wrote != dirty {
		t.Errorf("flush wrote %d lines, want %d", wrote, dirty)
	}
	if c.Cache.ValidLines() != 0 {
		t.Error("flush left valid lines")
	}
}

// TestCountersAddSub: Add and Sub are inverses.
func TestCountersAddSub(t *testing.T) {
	a := Counters{DRAMRead: 5, NVRAMWrite: 3, TagHit: 2, LLCRead: 7, DDO: 1}
	b := Counters{DRAMRead: 1, DRAMWrite: 2, TagMissClean: 4, LLCWrite: 2}
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("Add/Sub round trip failed: %v", got)
	}
}

// TestCountersSubClampsUnderflow: interval snapshots taken out of order
// (earlier minus later) must clamp at zero, not wrap to near-2^64
// values that silently corrupt every derived rate.
func TestCountersSubClampsUnderflow(t *testing.T) {
	earlier := Counters{DRAMRead: 10, NVRAMWrite: 1, TagHit: 5, LLCRead: 8}
	later := Counters{DRAMRead: 25, DRAMWrite: 4, NVRAMWrite: 3, TagHit: 9, TagMissClean: 2, LLCRead: 15, LLCWrite: 2}

	// Swapped-snapshot delta: every field clamps at zero.
	if got := earlier.Sub(later); got != (Counters{}) {
		t.Errorf("swapped-snapshot delta = {%v}, want all-zero", got)
	}
	// Mixed case: only the underflowing field clamps.
	a := Counters{DRAMRead: 5, DRAMWrite: 1}
	b := Counters{DRAMRead: 2, DRAMWrite: 7}
	got := a.Sub(b)
	want := Counters{DRAMRead: 3, DRAMWrite: 0}
	if got != want {
		t.Errorf("mixed underflow delta = {%v}, want {%v}", got, want)
	}
	// The correct ordering is unaffected.
	if got := later.Sub(earlier); got.DRAMRead != 15 || got.LLCRead != 7 {
		t.Errorf("ordered delta wrong: {%v}", got)
	}
}

func TestHitRate(t *testing.T) {
	c := Counters{TagHit: 3, TagMissClean: 1, TagMissDirty: 0}
	if hr := c.HitRate(); hr != 0.75 {
		t.Errorf("hit rate = %.2f, want 0.75", hr)
	}
	if (Counters{}).HitRate() != 0 {
		t.Error("empty counters hit rate should be 0")
	}
	if (Counters{}).Amplification() != 0 {
		t.Error("empty counters amplification should be 0")
	}
}

func TestResetCounters(t *testing.T) {
	c := newController(t, mem.KiB)
	c.LLCWrite(0)
	c.ResetCounters()
	if c.Counters() != (Counters{}) {
		t.Error("ResetCounters left nonzero counters")
	}
	// Cache state must survive: the next write is still a hit.
	if res, _ := c.LLCWrite(0); res != cache.Hit {
		t.Error("ResetCounters disturbed cache contents")
	}
}
