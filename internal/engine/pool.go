// Worker-pool experiment runner. Every experiment in
// internal/experiments builds its own fresh core.System, so whole
// experiments are embarrassingly parallel. The one state jobs of a run
// share is its scope of write-once cells (see Shared): a job that needs
// a fact a sibling derives reads it there instead of recomputing it.
// What needs care is keeping the *output* deterministic. The pool
// executes jobs on N goroutines but returns outcomes indexed by job
// order, so artifact files, report ordering and merged counters are
// identical whether the suite ran on 1 worker or 16.

package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"twolm/internal/imc"
	"twolm/internal/perfcounter"
	"twolm/internal/results"
)

// Artifact is one named experiment output: a rendered table, a counter
// time series, or a preformatted text block. Exactly one of the three
// payload fields is set.
type Artifact struct {
	Name   string
	Table  *results.Table
	Series *perfcounter.Series
	Text   string
}

// Job is one schedulable experiment: it produces named artifacts and,
// optionally, the raw counters it measured (for cross-job merges).
// Run receives the pool's context; a job that can run long must check
// it at its natural batch boundaries and return ctx.Err() when the
// run is cancelled (per-job deadlines and server drain depend on it).
// Jobs that complete in bounded time may ignore it.
type Job struct {
	Name string
	Run  func(ctx context.Context) ([]Artifact, error)
}

// Outcome is one job's result, in job order.
type Outcome struct {
	Job       string
	Artifacts []Artifact
	Err       error
	Elapsed   time.Duration
}

// RunJobs executes the jobs on a pool of workers goroutines and returns
// one Outcome per job, in job order regardless of completion order.
// workers < 2 degenerates to in-order serial execution on the calling
// goroutine. A job panic is converted into that job's Err rather than
// tearing down the pool.
func RunJobs(jobs []Job, workers int) []Outcome {
	return RunJobsObserved(context.Background(), jobs, workers, nil)
}

// RunJobsObserved is RunJobs with cancellation and a completion
// callback: observe (when non-nil) is invoked once per job as it
// finishes, in completion order, from whichever worker goroutine ran
// the job. Callbacks must therefore be safe for concurrent use when
// workers > 1 — the intended consumer is live progress reporting
// (telemetry gauges), which locks internally. The returned outcomes
// remain in job order.
//
// Cancelling ctx stops the run at the next job boundary: jobs not yet
// started complete immediately with Err = ctx.Err() (observe still
// fires for them, so progress accounting stays exact), and in-flight
// jobs see the same ctx through Job.Run so they can stop mid-stream.
// Every job always has an outcome — cancellation never loses one.
//
// Every job's ctx carries one scope, fresh for this call, in which
// Shared computes each key at most once.
func RunJobsObserved(ctx context.Context, jobs []Job, workers int, observe func(Outcome)) []Outcome {
	ctx = withScope(ctx)
	outs := make([]Outcome, len(jobs))
	done := func(i int) {
		if observe != nil {
			observe(outs[i])
		}
	}
	if workers < 2 {
		for i := range jobs {
			outs[i] = runOne(ctx, jobs[i])
			done(i)
		}
		return outs
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// Distinct jobs write distinct slice elements; no
				// further synchronization is needed.
				outs[i] = runOne(ctx, jobs[i])
				done(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return outs
}

// runOne executes a single job, converting panics to errors. A job
// whose context is already cancelled is skipped outright — its
// outcome carries ctx.Err() — so a cancelled grid drains in O(jobs)
// slice writes instead of running every remaining point to completion.
func runOne(ctx context.Context, j Job) (out Outcome) {
	out.Job = j.Name
	if err := ctx.Err(); err != nil {
		out.Err = err
		return out
	}
	//lint:ignore detrange Outcome.Elapsed is a wall-clock measurement of the simulator itself, not simulated state
	start := time.Now()
	defer func() {
		out.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			out.Err = fmt.Errorf("engine: job %q panicked: %v", j.Name, r)
		}
	}()
	out.Artifacts, out.Err = j.Run(ctx)
	return out
}

// FirstError returns the first failed outcome's error in job order, or
// nil if every job succeeded.
func FirstError(outs []Outcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.Job, o.Err)
		}
	}
	return nil
}

// MergeCounters folds counter sets field-wise with imc.Counters.Add.
// Add is commutative and associative over uint64 fields, so the result
// is independent of the order jobs completed in.
func MergeCounters(cs ...imc.Counters) imc.Counters {
	var total imc.Counters
	for _, c := range cs {
		total = total.Add(c)
	}
	return total
}
