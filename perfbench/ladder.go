package main

// ladderRates are the offered rates of the simd-open ladder, in jobs
// per second, and refRate the one whose latency is the end-to-end
// figure. latencyLimitMS is the limit on a step's tail latency (its p99
// when the step has the samples for one) that a step must meet to
// count as sustained.
var ladderRates = []float64{200, 400, 800, 1600}

const (
	refRate        = 400
	latencyLimitMS = 25
	// backlogSlack is how many jobs the queue may gain from the first
	// quarter of a step to the last before the step counts as growing.
	backlogSlack = 4
)

// stepResult is one ladder step as the generator saw it.
type stepResult struct {
	rate float64
	// tailLevel and tailMS are the step's latency tail under the
	// percentile rule; tailLevel is 0 when the step has too few jobs.
	tailLevel float64
	tailMS    float64
	// sentTailMS is the same tail with each job's latency timed from
	// when the generator actually sent it rather than from its due time.
	sentTailMS float64
	depths     []float64
	failed     int
	aborted    bool // the step stopped early on a runaway backlog
	grew       bool // a merged sub-step's backlog grew
}

// growing reports whether the admission queue gained jobs across the
// step: the mean depth of its last quarter exceeds that of its first
// quarter by more than backlogSlack.
func growing(depths []float64) bool {
	q := len(depths) / 4
	if q == 0 {
		return false
	}
	return sum(depths[len(depths)-q:])/float64(q)-sum(depths[:q])/float64(q) > backlogSlack
}

// sustained reports whether a step meets the latency limit on its
// tail percentile without failures or a growing backlog.
func (s stepResult) sustained() bool {
	return !s.aborted && !s.grew && s.failed == 0 && s.tailLevel > 0 && s.tailMS <= latencyLimitMS && !growing(s.depths)
}

// generatorBound reports whether the generator, not the server, kept
// the step from meeting the limit: its tail misses the limit only
// because jobs were sent late (timed from the actual send it meets the
// limit), no job failed, and the admission queue stayed flat, so the
// server took every job it was offered at once.
func (s stepResult) generatorBound() bool {
	return s.tailLevel > 0 && s.tailMS > latencyLimitMS && s.sentTailMS <= latencyLimitMS &&
		s.failed == 0 && !s.aborted && !s.grew && !growing(s.depths)
}

// maxSustained returns the highest rate among steps that were
// sustained, counting only the unbroken run of sustained steps from
// the bottom of the ladder; 0 if the first step already failed. A
// generator-bound step says nothing about the server and is left out.
func maxSustained(steps []stepResult) float64 {
	best := 0.0
	for _, s := range steps {
		if s.generatorBound() {
			continue
		}
		if !s.sustained() {
			break
		}
		best = s.rate
	}
	return best
}
