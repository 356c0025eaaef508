package core

import (
	"testing"
	"testing/quick"

	"twolm/internal/mem"
)

// TestPropertyCounterIdentities: arbitrary operation sequences keep
// every counter identity intact in both modes (testing/quick drives
// the op stream).
func TestPropertyCounterIdentities(t *testing.T) {
	for _, mode := range []Mode{Mode2LM, Mode1LM} {
		mode := mode
		f := func(ops []uint16) bool {
			s, err := New(testConfig(mode))
			if err != nil {
				return false
			}
			space := 2 * s.Platform().DRAMSize()
			for _, raw := range ops {
				addr := (uint64(raw>>2) % (space / mem.Line)) * mem.Line
				switch raw & 3 {
				case 0:
					s.load(addr)
				case 1:
					s.store(addr)
				case 2:
					s.storeNT(addr)
				default:
					s.rmw(addr)
				}
			}
			s.DrainLLC()
			return s.ValidateCounters() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

// TestPropertyClockMonotonic: the clock never runs backwards across
// arbitrary sync sequences.
func TestPropertyClockMonotonic(t *testing.T) {
	f := func(ops []uint16, computes []uint8) bool {
		s, err := New(testConfig(Mode2LM))
		if err != nil {
			return false
		}
		last := 0.0
		for i, raw := range ops {
			addr := (uint64(raw) % (s.Platform().DRAMSize() / mem.Line)) * mem.Line
			s.load(addr)
			if i%3 == 0 {
				compute := 0.0
				if i/3 < len(computes) {
					compute = float64(computes[i/3]) * 1e-6
				}
				s.Sync("x", compute)
				if s.Clock() < last {
					return false
				}
				last = s.Clock()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDemandAccounting: DemandBytes equals the op-weighted sum
// regardless of hit/miss behavior.
func TestPropertyDemandAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		s, err := New(testConfig(Mode2LM))
		if err != nil {
			return false
		}
		var want uint64
		for i, op := range ops {
			addr := uint64(i%1024) * mem.Line
			switch op % 4 {
			case 0:
				s.load(addr)
				want += mem.Line
			case 1:
				s.store(addr)
				want += mem.Line
			case 2:
				s.storeNT(addr)
				want += mem.Line
			default:
				s.rmw(addr)
				want += 2 * mem.Line
			}
		}
		return s.DemandBytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
