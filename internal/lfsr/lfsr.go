// Package lfsr implements maximum-length Galois linear feedback shift
// registers.
//
// The paper's benchmark generator (KernelBenchmarks.jl) uses a
// maximum-length LFSR to iterate pseudo-randomly over an array while
// touching every index exactly once — a property ordinary PRNG shuffles
// only get with O(n) extra memory. A maximum-length LFSR over w bits
// visits every value in [1, 2^w-1] exactly once before repeating; the
// generator maps that cycle (plus an explicit zero) onto array indices.
package lfsr

import "fmt"

// taps holds feedback masks producing maximum-length sequences for
// register widths 2..32. Taps are from the standard Xilinx/maximal-LFSR
// tables, expressed as Galois feedback masks (bit i set means tap at
// position i+1).
var taps = [33]uint32{
	2:  0x3,
	3:  0x6,
	4:  0xC,
	5:  0x14,
	6:  0x30,
	7:  0x60,
	8:  0xB8,
	9:  0x110,
	10: 0x240,
	11: 0x500,
	12: 0xE08,
	13: 0x1C80,
	14: 0x3802,
	15: 0x6000,
	16: 0xD008,
	17: 0x12000,
	18: 0x20400,
	19: 0x72000,
	20: 0x90000,
	21: 0x140000,
	22: 0x300000,
	23: 0x420000,
	24: 0xE10000,
	25: 0x1200000,
	26: 0x3880000,
	27: 0x7200000,
	28: 0x9000000,
	29: 0x14000000,
	30: 0x32800000,
	31: 0x48000000,
	32: 0xA3000000,
}

// MinWidth and MaxWidth bound the supported register widths.
const (
	MinWidth = 2
	MaxWidth = 32
)

// WidthFor returns the smallest supported register width whose period
// covers at least n values, i.e. 2^w - 1 >= n.
func WidthFor(n uint64) (uint, error) {
	if n == 0 {
		return 0, fmt.Errorf("lfsr: WidthFor(0)")
	}
	for w := uint(MinWidth); w <= MaxWidth; w++ {
		if (uint64(1)<<w)-1 >= n {
			return w, nil
		}
	}
	return 0, fmt.Errorf("lfsr: %d exceeds maximum period", n)
}

// Stream produces the same index sequence as Sequence — every index in
// [0, n) exactly once, zero first — in caller-sized chunks instead of a
// callback per index. The skip test (an out-of-range state is an uneven
// coin flip) is a masked cursor bump rather than a branch, and the
// consumer's loop over the filled buffer is branch free too, which is
// why the hot random pass uses this instead of Sequence. The zero value
// is not usable; construct with NewStream.
type Stream struct {
	state   uint32
	mask    uint32
	n       uint64
	emitted uint64
	steps   uint64
	period  uint64
	first   bool // index 0 not yet emitted
}

// NewStream returns a Stream over [0, n) seeded like Sequence. The
// value is self-contained and lives wherever the caller puts it — no
// heap state, so the random-path benchmarks stay at 0 allocs/op.
//
//alloc:cold stream setup runs once per pass, not per line; its error paths may format
func NewStream(n uint64, seed uint32) (Stream, error) {
	if n <= 1 {
		return Stream{n: n, first: n == 1}, nil
	}
	w, err := WidthFor(n - 1)
	if err != nil {
		return Stream{}, err
	}
	state := seed
	if w < 32 {
		state &= (1 << w) - 1
	}
	if state == 0 {
		state = 1
	}
	return Stream{
		state:  state,
		mask:   taps[w],
		n:      n,
		period: (uint64(1) << w) - 1,
		first:  true,
	}, nil
}

// Fill writes up to len(buf) further indices into buf and returns the
// count written; zero means the sequence is exhausted. An error means
// the register cycled without covering [0, n) — impossible for a
// well-formed width table, mirroring Sequence's invariant check.
func (s *Stream) Fill(buf []uint32) (int, error) {
	if s.emitted == s.n || len(buf) == 0 {
		return 0, nil
	}
	c := 0
	if s.first {
		buf[0] = 0
		c = 1
		s.first = false
		s.emitted = 1
		if s.emitted == s.n {
			return c, nil
		}
	}
	limit := len(buf)
	if rem := s.n - s.emitted; uint64(limit-c) > rem {
		limit = c + int(rem)
	}
	cStart := c
	state, mask, n := s.state, s.mask, s.n
	steps, period := s.steps, s.period
	for c < limit && steps < period {
		// Branchless Galois step plus a masked cursor bump: the store
		// is unconditional and the slot is overwritten when the state
		// falls outside [1, n).
		state = (state >> 1) ^ (mask & -(state & 1))
		steps++
		buf[c] = state
		if uint64(state) < n {
			c++
		}
	}
	s.state, s.steps = state, steps
	s.emitted += uint64(c - cStart)
	if c == 0 && s.emitted < s.n {
		return 0, s.stallError()
	}
	return c, nil
}

// stallError reports a stream that stopped producing indices before
// covering [0, n) — impossible for a correct LFSR, so the formatting
// allocation lives behind a cold boundary off the Fill fast path.
//
//alloc:cold defensive error path: a correct LFSR never stalls mid-stream
func (s *Stream) stallError() error {
	return fmt.Errorf("lfsr: stream emitted %d of %d indices", s.emitted, s.n)
}

// Sequence visits every index in [0, n) exactly once in pseudo-random
// order, calling fn for each. It uses the smallest LFSR covering n and
// skips out-of-range states (at most half of the steps are skipped, by
// choice of width). Index 0, which the LFSR cannot produce, is visited
// first.
//
// The register lives in locals, so the call is allocation free — the
// random-path benchmarks assert 0 allocs/op through here.
func Sequence(n uint64, seed uint32, fn func(idx uint64)) error {
	if n == 0 {
		return nil
	}
	if n == 1 {
		fn(0)
		return nil
	}
	w, err := WidthFor(n - 1)
	if err != nil {
		return err
	}
	mask := taps[w]
	state := seed
	if w < 32 {
		state &= (1 << w) - 1
	}
	if state == 0 {
		state = 1
	}
	fn(0)
	emitted := uint64(1)
	period := (uint64(1) << w) - 1
	for i := uint64(0); i < period && emitted < n; i++ {
		// Branchless Galois step — the feedback bit is an even coin
		// flip, so an if on it would mispredict every other step.
		state = (state >> 1) ^ (mask & -(state & 1))
		if v := uint64(state); v < n {
			fn(v)
			emitted++
		}
	}
	if emitted != n {
		return fmt.Errorf("lfsr: sequence emitted %d of %d indices", emitted, n)
	}
	return nil
}
