package imc

import (
	"testing"

	"twolm/internal/dram"
	"twolm/internal/mem"
	"twolm/internal/nvram"
)

// newFoldPair builds two identically configured controllers with a
// small DRAM cache (3072 sets) so modest ranges cross the probe wrap
// into the uniform remainder of the closed-form fold.
func newFoldPair(t *testing.T, policy Policy) (perLine, batched *Controller) {
	t.Helper()
	build := func() *Controller {
		d, err := dram.New(6, 192*mem.KiB)
		if err != nil {
			t.Fatal(err)
		}
		n, err := nvram.New(6, 48*mem.MiB)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(d, n, WithPolicy(policy))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return build(), build()
}

// assertSameTagState asserts the two controllers' tag stores are in
// identical final states, word for word — the part of the fold the
// counter comparison cannot see (a wrong bulk stamp only shows up in
// later traffic). Each set keeps its ways in recency order, so equal
// histories leave equal words in equal slots at any associativity.
func assertSameTagState(t *testing.T, label string, perLine, batched *Controller) {
	t.Helper()
	for h := uint64(0); h < perLine.Cache.Lines(); h++ {
		if a, b := perLine.Cache.Entry(h), batched.Cache.Entry(h); a != b {
			t.Fatalf("%s: tag state diverges at handle %d: per-line %#x, batched %#x", label, h, a, b)
		}
	}
}

// foldPrimings returns named priming functions that put both
// controllers of a pair into interesting identical pre-range states.
// A group is Ways x Sets lines: the span after which a sequential
// range revisits the same way of the same set.
func foldPrimings(sets, group uint64) map[string]func(c *Controller) {
	return map[string]func(c *Controller){
		"cold": func(c *Controller) {},
		"warm-clean": func(c *Controller) {
			// Every way valid and clean, holding the test ranges' first
			// group.
			for a := uint64(0); a < group*mem.Line; a += mem.Line {
				c.LLCRead(a)
			}
		},
		"warm-dirty": func(c *Controller) {
			// One way of every set dirty — a read fold from line 0 hits
			// dirty lines in its first group, so it runs a second.
			for a := uint64(0); a < sets*mem.Line; a += mem.Line {
				c.LLCWrite(a)
			}
		},
		"dirty-group": func(c *Controller) {
			// Every way of every set dirty with the test ranges' first
			// group: the first read group hits dirty lines throughout.
			for a := uint64(0); a < group*mem.Line; a += mem.Line {
				c.LLCWrite(a)
			}
		},
		"adversarial": func(c *Controller) {
			// Aliased strided traffic: alternating tags per set region,
			// a mix of dirty, clean, owned, and invalid sets, so a probe
			// wrap sees every Table-I outcome.
			for i := uint64(0); i < sets; i += 2 {
				c.LLCWrite((i*7%sets + (i%5)*sets) * mem.Line)
			}
			for i := uint64(0); i < sets; i += 3 {
				c.LLCRead((i + (i%3)*sets) * mem.Line)
			}
		},
	}
}

// TestSeqFoldLongRanges drives read and write ranges long enough to
// cross from the predicated probe groups into the uniform remainder —
// including exact-group, group+1, and multi-group-plus-tail lengths at
// aligned and unaligned bases — against every policy and priming, and
// demands byte-identical traffic and final tag state versus per-line
// dispatch.
func TestSeqFoldLongRanges(t *testing.T) {
	for name, policy := range rangeTestPolicies() {
		t.Run(name, func(t *testing.T) {
			probe, _ := newFoldPair(t, policy)
			sets, g := probe.Cache.Sets(), probe.Cache.Lines()
			for pname, prime := range foldPrimings(sets, g) {
				t.Run(pname, func(t *testing.T) {
					perLine, batched := newFoldPair(t, policy)
					prime(perLine)
					prime(batched)
					for _, n := range []uint64{1, g - 1, g, g + 1, 2*g + 137, 3 * g} {
						for _, base := range []uint64{0, 513 * mem.Line, 7*mem.Line + 24} {
							for a, i := base, uint64(0); i < n; i++ {
								perLine.LLCRead(a)
								a += mem.Line
							}
							batched.LLCReadRange(base, n)
							for a, i := base, uint64(0); i < n; i++ {
								perLine.LLCWrite(a)
								a += mem.Line
							}
							batched.LLCWriteRange(base, n)
						}
					}
					assertSameTraffic(t, pname, perLine, batched)
					assertSameTagState(t, pname, perLine, batched)
				})
			}
		})
	}
}

// TestWritebackReadRangeMatchesPerLine proves LLCWritebackReadRange —
// fold and fallback alike — generates exactly the traffic and state of
// the per-pair LLCWrite/LLCRead interleave it batches, across lags
// inside the fold window (1 to sets-1), at and beyond it (fallback),
// with mixed alignment, for every policy and priming.
func TestWritebackReadRangeMatchesPerLine(t *testing.T) {
	for name, policy := range rangeTestPolicies() {
		t.Run(name, func(t *testing.T) {
			probe, _ := newFoldPair(t, policy)
			sets := probe.Cache.Sets()
			lags := []uint64{1, 7, sets / 2, sets - 1, sets, sets + 5}
			for pname, prime := range foldPrimings(sets, probe.Cache.Lines()) {
				t.Run(pname, func(t *testing.T) {
					perLine, batched := newFoldPair(t, policy)
					prime(perLine)
					prime(batched)
					for _, lag := range lags {
						for _, n := range []uint64{1, sets, 2*sets + 77} {
							for _, off := range []uint64{0, 24} {
								waddr := 11*mem.Line + off
								raddr := waddr + lag*mem.Line - off
								for i := uint64(0); i < n; i++ {
									perLine.LLCWrite(waddr + i*mem.Line)
									perLine.LLCRead(raddr + i*mem.Line)
								}
								batched.LLCWritebackReadRange(waddr, raddr, n)
							}
						}
					}
					// Degenerate orderings must take the fallback.
					perLine.LLCWrite(5 * mem.Line)
					perLine.LLCRead(5 * mem.Line)
					batched.LLCWritebackReadRange(5*mem.Line, 5*mem.Line, 1)
					perLine.LLCWrite(9 * mem.Line)
					perLine.LLCRead(3 * mem.Line)
					batched.LLCWritebackReadRange(9*mem.Line, 3*mem.Line, 1)
					batched.LLCWritebackReadRange(0, mem.Line, 0)
					assertSameTraffic(t, pname, perLine, batched)
					assertSameTagState(t, pname, perLine, batched)
				})
			}
		})
	}
}

// TestRangeSplitCommutes is the range-split property test: servicing a
// sequential range in one call and servicing it as back-to-back
// subranges split at arbitrary cut points must produce byte-identical
// traffic and tag state — the fold's segment boundaries (probe groups,
// uniform remainder, stamp window) cannot leak into the results.
func TestRangeSplitCommutes(t *testing.T) {
	for name, policy := range rangeTestPolicies() {
		t.Run(name, func(t *testing.T) {
			probe, _ := newFoldPair(t, policy)
			sets, g := probe.Cache.Sets(), probe.Cache.Lines()
			n := 3*g + 311
			cutVectors := [][]uint64{
				{1},                 // peel one line
				{g},                 // exactly the probe group
				{g + 1},             // one past it
				{g / 3, g + 7},      // mid-group and early-uniform
				{2*g + 5, 3 * g},    // both cuts in the remainder
				{1, 2, 3, g, 3 * g}, // many uneven pieces
			}
			for _, cuts := range cutVectors {
				for _, write := range []bool{false, true} {
					whole, split := newFoldPair(t, policy)
					// Shared priming: a dirty stripe so splits land on
					// non-trivial state.
					for a := uint64(0); a < sets*mem.Line; a += 2 * mem.Line {
						whole.LLCWrite(a)
						split.LLCWrite(a)
					}
					const base = 17 * mem.Line
					run := func(c *Controller, start, cnt uint64) {
						if write {
							c.LLCWriteRange(base+start*mem.Line, cnt)
						} else {
							c.LLCReadRange(base+start*mem.Line, cnt)
						}
					}
					run(whole, 0, n)
					prev := uint64(0)
					for _, cut := range cuts {
						run(split, prev, cut-prev)
						prev = cut
					}
					run(split, prev, n-prev)
					label := name
					if write {
						label += "-write"
					} else {
						label += "-read"
					}
					assertSameTraffic(t, label, whole, split)
					assertSameTagState(t, label, whole, split)
				}
			}
		})
	}
}
