// Package ctruse mutates imported imc.Counters every way a consumer
// might: through the Add pipeline (fine), through a declared
// accumulator (fine), and ad hoc (flagged).
package ctruse

import "imc"

// Report carries a counter snapshot by value.
type Report struct {
	C imc.Counters
}

// Stats declares its accumulator explicitly, the way core's 1LM
// flatMemory declares its counters; the marker keeps the exception
// auditable and the guarantee test greppable.
type Stats struct {
	flat imc.Counters //ctrmut:accumulator fixture accumulator, flushed via Total
}

// Bump mutates through the declared accumulator: allowed.
func (s *Stats) Bump() { s.flat.Reads++ }

// Total drains the accumulator through the pipeline.
func (s *Stats) Total(base imc.Counters) imc.Counters { return base.Add(s.flat) }

// Fudge rewrites a snapshot field in place: exactly the ad-hoc
// cross-package mutation ctrmut exists to stop.
func Fudge(r *Report) {
	r.C.Reads++ // want `counter field imc\.Reads mutated outside the counter pipeline`
}

// LocalDrift shows that even a local accumulator is not sanctioned
// outside the counters' own package: merge with Add instead.
func LocalDrift(rs []Report) imc.Counters {
	var total imc.Counters
	for _, r := range rs {
		total.Reads += r.C.Reads // want `counter field imc\.Reads mutated outside the counter pipeline`
	}
	return total
}
