package imc

import (
	"math/rand"
	"testing"

	"twolm/internal/mem"
)

// refModel is an independent, deliberately naive reimplementation of
// the Table I bookkeeping: a map-based direct-mapped cache that
// derives every counter from first principles. The production
// controller is differential-tested against it on random streams —
// two implementations agreeing on millions of events is strong
// evidence both encode the paper's Table I correctly. It covers every
// allocation policy of the direct-mapped store.
type refModel struct {
	policy  Policy
	sets    uint64
	tags    map[uint64]uint64 // set -> resident line number
	dirty   map[uint64]bool
	owned   map[uint64]bool
	counter Counters
}

func newRefModel(capacity uint64, policy Policy) *refModel {
	return &refModel{
		policy: policy,
		sets:   capacity / mem.Line,
		tags:   make(map[uint64]uint64),
		dirty:  make(map[uint64]bool),
		owned:  make(map[uint64]bool),
	}
}

func (r *refModel) classify(line uint64) (set uint64, hit, dirtyMiss bool) {
	set = line % r.sets
	resident, ok := r.tags[set]
	if ok && resident == line {
		return set, true, false
	}
	return set, false, ok && r.dirty[set]
}

func (r *refModel) fill(set, line uint64) {
	if r.dirty[set] {
		r.counter.NVRAMWrite++
	}
	r.counter.NVRAMRead++
	r.counter.DRAMWrite++
	r.tags[set] = line
	r.dirty[set] = false
	r.owned[set] = false
}

func (r *refModel) read(addr uint64) {
	line := addr >> mem.LineShift
	r.counter.LLCRead++
	r.counter.DRAMRead++
	set, hit, dirtyMiss := r.classify(line)
	switch {
	case hit:
		r.counter.TagHit++
	case !r.policy.ReadAllocate:
		// Forwarded from NVRAM uncached; the resident line is untouched.
		r.counter.TagMissClean++
		r.counter.NVRAMRead++
		return
	case dirtyMiss:
		r.counter.TagMissDirty++
		r.fill(set, line)
	default:
		r.counter.TagMissClean++
		r.fill(set, line)
	}
	r.owned[set] = true
}

func (r *refModel) write(addr uint64) {
	line := addr >> mem.LineShift
	r.counter.LLCWrite++
	set, hit, dirtyMiss := r.classify(line)
	if hit && r.owned[set] && !r.policy.DisableDDO {
		r.counter.DDO++
		r.counter.TagHit++
		r.counter.DRAMWrite++
		r.dirty[set] = true
		r.owned[set] = false
		return
	}
	r.counter.DRAMRead++ // tag check
	switch {
	case hit:
		r.counter.TagHit++
	case !r.policy.WriteAllocate:
		// Written straight to NVRAM; the resident line is untouched.
		r.counter.TagMissClean++
		r.counter.NVRAMWrite++
		return
	case dirtyMiss:
		r.counter.TagMissDirty++
		r.fill(set, line)
	default:
		r.counter.TagMissClean++
		r.fill(set, line)
	}
	r.counter.DRAMWrite++
	r.dirty[set] = true
	r.owned[set] = false
}

// refPolicies is the direct-mapped policy matrix refModel covers.
func refPolicies() map[string]Policy {
	out := rangeTestPolicies()
	delete(out, "4-way")
	return out
}

// TestDifferentialAgainstReference drives both implementations with
// identical random streams across several cache sizes and every
// policy, and compares every counter.
func TestDifferentialAgainstReference(t *testing.T) {
	for name, policy := range refPolicies() {
		for _, capacity := range []uint64{mem.KiB, 8 * mem.KiB, 64 * mem.KiB} {
			ctrl := newPolicyController(t, capacity, policy)
			ref := newRefModel(capacity, policy)
			rng := rand.New(rand.NewSource(int64(capacity)))
			space := 8 * capacity
			const ops = 300000
			for i := 0; i < ops; i++ {
				addr := (rng.Uint64() % (space / mem.Line)) * mem.Line
				if rng.Intn(3) == 0 {
					ctrl.LLCWrite(addr)
					ref.write(addr)
				} else {
					ctrl.LLCRead(addr)
					ref.read(addr)
				}
				if i%50000 == 0 {
					if got, want := ctrl.Counters(), ref.counter; got != want {
						t.Fatalf("%s, capacity %d, op %d: divergence\n ctrl: %v\n ref:  %v",
							name, capacity, i, got, want)
					}
				}
			}
			if got, want := ctrl.Counters(), ref.counter; got != want {
				t.Fatalf("%s, capacity %d: final divergence\n ctrl: %v\n ref:  %v", name, capacity, got, want)
			}
		}
	}
}

// TestDifferentialSequentialStreams covers the structured patterns the
// benchmarks use (ascending read, write, alternating) where off-by-one
// set-index bugs would hide from random testing, for every policy.
func TestDifferentialSequentialStreams(t *testing.T) {
	capacity := uint64(4 * mem.KiB)
	for name, policy := range refPolicies() {
		ctrl := newPolicyController(t, capacity, policy)
		ref := newRefModel(capacity, policy)
		span := 4 * capacity
		// Pass 1: sequential reads; pass 2: sequential writes; pass 3:
		// read-then-write per line.
		for a := uint64(0); a < span; a += mem.Line {
			ctrl.LLCRead(a)
			ref.read(a)
		}
		for a := uint64(0); a < span; a += mem.Line {
			ctrl.LLCWrite(a)
			ref.write(a)
		}
		for a := uint64(0); a < span; a += mem.Line {
			ctrl.LLCRead(a)
			ref.read(a)
			ctrl.LLCWrite(a)
			ref.write(a)
		}
		if got, want := ctrl.Counters(), ref.counter; got != want {
			t.Fatalf("%s: sequential divergence\n ctrl: %v\n ref:  %v", name, got, want)
		}
	}
}
