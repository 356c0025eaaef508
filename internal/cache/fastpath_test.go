package cache

import (
	"math/rand"
	"testing"

	"twolm/internal/mem"
)

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
				h = fill(t, c, h, addr)
			}
			got, ok := c.VictimAddr(h)
			if !ok || got != addr {
				t.Fatalf("ways %d: VictimAddr after install of %#x = %#x, %v", ways, addr, got, ok)
			}
		}
	}
}
