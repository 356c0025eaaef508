package lfsr

import (
	"testing"
	"testing/quick"
)

// step is one Galois step of a width-w register with the taps table's
// feedback mask, the update Sequence and Stream inline.
func step(state uint32, w uint) uint32 {
	return (state >> 1) ^ (taps[w] & -(state & 1))
}

// TestMaximumLength verifies that every supported width produces a
// maximum-length sequence: period 2^w - 1 with no repeated states.
func TestMaximumLength(t *testing.T) {
	for w := uint(MinWidth); w <= 20; w++ { // exhaustive up to 2^20
		period := (uint64(1) << w) - 1
		seen := make([]bool, period+1)
		state := uint32(1)
		for i := uint64(0); i < period; i++ {
			state = step(state, w)
			if state == 0 {
				t.Fatalf("width %d: state reached 0 at step %d", w, i)
			}
			if uint64(state) > period {
				t.Fatalf("width %d: state %d out of range", w, state)
			}
			if seen[state] {
				t.Fatalf("width %d: state %d repeated before period at step %d", w, state, i)
			}
			seen[state] = true
		}
		if state != 1 {
			// After exactly one period the register returns to its seed.
			t.Fatalf("width %d: state after full period = %d, want seed 1", w, state)
		}
	}
}

// TestLargerWidthsNoEarlyRepeat spot-checks that wide registers return
// to the seed only after visiting many distinct states (we cannot
// afford the full 2^32 period, so check a prefix for collisions).
func TestLargerWidthsNoEarlyRepeat(t *testing.T) {
	for _, w := range []uint{24, 28, 32} {
		seed := uint32(12345)
		state := seed
		const steps = 1 << 16
		for i := 0; i < steps; i++ {
			if state = step(state, w); state == seed {
				t.Fatalf("width %d: returned to seed after only %d steps", w, i+1)
			}
		}
	}
}

// TestNewRejectsBadWidth: an n whose register would be wider than
// MaxWidth is an error from both generators, not a short sequence.
func TestNewRejectsBadWidth(t *testing.T) {
	const n = uint64(1) << 40
	if _, err := NewStream(n, 1); err == nil {
		t.Error("NewStream accepted an n beyond the widest register")
	}
	if err := Sequence(n, 1, func(uint64) {}); err == nil {
		t.Error("Sequence accepted an n beyond the widest register")
	}
}

// TestSeedAvoidsZero: a seed of 0, or one whose low width bits are all
// 0, must not leave the register in its fixed point. n = 200 needs an
// 8-bit register, so 256 masks to 0.
func TestSeedAvoidsZero(t *testing.T) {
	const n = 200
	for _, seed := range []uint32{0, 256} {
		st, err := NewStream(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if st.state == 0 {
			t.Fatalf("NewStream seed %d left the register at 0", seed)
		}
		visited := uint64(0)
		if err := Sequence(n, seed, func(uint64) { visited++ }); err != nil {
			t.Fatalf("Sequence seed %d: %v", seed, err)
		}
		if visited != n {
			t.Fatalf("Sequence seed %d visited %d of %d indices", seed, visited, n)
		}
	}
}

func TestWidthFor(t *testing.T) {
	cases := []struct {
		n    uint64
		want uint
	}{
		{1, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1 << 20, 21},
	}
	for _, c := range cases {
		got, err := WidthFor(c.n)
		if err != nil {
			t.Fatalf("WidthFor(%d): %v", c.n, err)
		}
		if got != c.want {
			t.Errorf("WidthFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if _, err := WidthFor(0); err == nil {
		t.Error("WidthFor(0) should error")
	}
	if _, err := WidthFor(1 << 40); err == nil {
		t.Error("WidthFor(2^40) should exceed the maximum period")
	}
}

// TestSequenceVisitsEachOnce is the core property the paper relies on:
// pseudo-random iteration touching every index exactly once.
func TestSequenceVisitsEachOnce(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 3, 5, 64, 100, 1024, 4099} {
		seen := make(map[uint64]int)
		var order []uint64
		if err := Sequence(n, 7, func(i uint64) {
			seen[i]++
			order = append(order, i)
		}); err != nil {
			t.Fatalf("Sequence(%d): %v", n, err)
		}
		if uint64(len(seen)) != n {
			t.Fatalf("Sequence(%d) visited %d distinct indices", n, len(seen))
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("Sequence(%d): index %d visited %d times", n, i, c)
			}
			if i >= n {
				t.Fatalf("Sequence(%d): index %d out of range", n, i)
			}
		}
	}
}

// TestSequenceIsPermutationProperty checks the permutation property on
// random sizes with testing/quick.
func TestSequenceIsPermutationProperty(t *testing.T) {
	f := func(nRaw uint16, seed uint32) bool {
		n := uint64(nRaw%5000) + 1
		seen := make([]bool, n)
		count := uint64(0)
		if err := Sequence(n, seed, func(i uint64) {
			if i >= n || seen[i] {
				return
			}
			seen[i] = true
			count++
		}); err != nil {
			return false
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSequenceNotSequential sanity-checks that the order is actually
// shuffled rather than ascending.
func TestSequenceNotSequential(t *testing.T) {
	var order []uint64
	if err := Sequence(1024, 99, func(i uint64) { order = append(order, i) }); err != nil {
		t.Fatal(err)
	}
	ascending := 0
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1]+1 {
			ascending++
		}
	}
	if ascending > len(order)/10 {
		t.Fatalf("order looks sequential: %d/%d ascending steps", ascending, len(order))
	}
}

// TestStreamMatchesSequence pins the Stream contract: for any n and
// seed, Fill-ing through a Stream in arbitrary chunk sizes emits
// exactly the index sequence Sequence produces, in the same order.
func TestStreamMatchesSequence(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		seed uint32
		buf  int
	}{
		{0, 1, 8}, {1, 1, 8}, {2, 7, 1}, {3, 0, 2}, {100, 0xBEEF, 7},
		{1000, 0x2B1A, 64}, {4096, 42, 2048}, {5000, 0xFFFF, 4096},
	} {
		want := make([]uint64, 0, tc.n)
		if err := Sequence(tc.n, tc.seed, func(idx uint64) {
			want = append(want, idx)
		}); err != nil {
			t.Fatal(err)
		}
		st, err := NewStream(tc.n, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, 0, tc.n)
		buf := make([]uint32, tc.buf)
		for {
			k, err := st.Fill(buf)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				break
			}
			for _, v := range buf[:k] {
				got = append(got, uint64(v))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d seed=%#x buf=%d: got %d indices, want %d",
				tc.n, tc.seed, tc.buf, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d seed=%#x buf=%d: index %d is %d, want %d",
					tc.n, tc.seed, tc.buf, i, got[i], want[i])
			}
		}
		// Exhausted streams keep returning 0 without error.
		if k, err := st.Fill(buf); k != 0 || err != nil {
			t.Fatalf("n=%d: exhausted Fill returned (%d, %v)", tc.n, k, err)
		}
	}
}
