package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sharedJobs builds n jobs that each read key through Shared, where
// computing the value counts into computed and takes a moment, so
// concurrent readers overlap the computation.
func sharedJobs(n int, computed *atomic.Int64, got []int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("reader%d", i), Run: func(ctx context.Context) ([]Artifact, error) {
			v, err := Shared(ctx, "key", func() (int, error) {
				time.Sleep(5 * time.Millisecond)
				return int(computed.Add(1)), nil
			})
			got[i] = v
			return nil, err
		}}
	}
	return jobs
}

// runWithin fails the test if RunJobsObserved does not return in time.
func runWithin(t *testing.T, ctx context.Context, jobs []Job, workers int) []Outcome {
	t.Helper()
	done := make(chan []Outcome, 1)
	go func() { done <- RunJobsObserved(ctx, jobs, workers, nil) }()
	select {
	case outs := <-done:
		return outs
	case <-time.After(30 * time.Second):
		t.Fatal("run hung")
		return nil
	}
}

// TestSharedOncePerRun: eight readers on four workers compute the key
// once and all see that one value.
func TestSharedOncePerRun(t *testing.T) {
	var computed atomic.Int64
	got := make([]int, 8)
	outs := RunJobs(sharedJobs(len(got), &computed, got), 4)
	if err := FirstError(outs); err != nil {
		t.Fatal(err)
	}
	if n := computed.Load(); n != 1 {
		t.Errorf("computed %d times across 4 workers, want 1", n)
	}
	for i, v := range got {
		if v != 1 {
			t.Errorf("reader %d saw %d, want 1", i, v)
		}
	}
}

// TestSharedFreshPerRun: running the same job list twice computes the
// key twice — no value crosses runs.
func TestSharedFreshPerRun(t *testing.T) {
	var computed atomic.Int64
	got := make([]int, 4)
	jobs := sharedJobs(len(got), &computed, got)
	for run := 1; run <= 2; run++ {
		if err := FirstError(RunJobs(jobs, 2)); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != run {
				t.Errorf("run %d: reader %d saw %d, want %d", run, i, v, run)
			}
		}
	}
	if n := computed.Load(); n != 2 {
		t.Errorf("computed %d times over 2 runs, want 2", n)
	}
}

// TestSharedWithoutScope: outside a run, every call computes.
func TestSharedWithoutScope(t *testing.T) {
	calls := 0
	for i := 1; i <= 3; i++ {
		v, err := Shared(context.Background(), "key", func() (int, error) {
			calls++
			return calls, nil
		})
		if err != nil || v != i {
			t.Fatalf("call %d: got %d, %v", i, v, err)
		}
	}
}

// TestSharedPanicFailsProducerAndConsumer: a panic while computing a
// key fails the job that computed it and the job waiting for it, and
// neither hangs.
func TestSharedPanicFailsProducerAndConsumer(t *testing.T) {
	entered := make(chan struct{})
	jobs := []Job{
		{Name: "producer", Run: func(ctx context.Context) ([]Artifact, error) {
			_, err := Shared(ctx, "key", func() (int, error) {
				close(entered)
				time.Sleep(10 * time.Millisecond)
				panic("kaboom")
			})
			return nil, err
		}},
		{Name: "consumer", Run: func(ctx context.Context) ([]Artifact, error) {
			<-entered
			_, err := Shared(ctx, "key", func() (int, error) {
				return 0, errors.New("consumer computed a key its producer owns")
			})
			return nil, err
		}},
	}
	outs := runWithin(t, context.Background(), jobs, 2)
	for _, o := range outs {
		if o.Err == nil || !strings.Contains(o.Err.Error(), "kaboom") {
			t.Errorf("%s: err = %v, want the producer's panic", o.Job, o.Err)
		}
	}
}

// TestSharedCancelledWaiter: a job waiting for a key stops with
// ctx.Err() when the run is cancelled, without waiting for the
// computation, and the run returns.
func TestSharedCancelledWaiter(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	entered, consumerDone := make(chan struct{}), make(chan struct{})
	jobs := []Job{
		{Name: "producer", Run: func(ctx context.Context) ([]Artifact, error) {
			_, err := Shared(ctx, "key", func() (int, error) {
				close(entered)
				// Finish only once the waiter has given up: the
				// waiter cannot have seen this value.
				<-consumerDone
				return 1, nil
			})
			return nil, err
		}},
		{Name: "consumer", Run: func(ctx context.Context) ([]Artifact, error) {
			defer close(consumerDone)
			<-entered
			cancel()
			_, err := Shared(ctx, "key", func() (int, error) {
				return 0, errors.New("consumer computed a key its producer owns")
			})
			return nil, err
		}},
	}
	outs := runWithin(t, ctx, jobs, 2)
	if outs[0].Err != nil {
		t.Errorf("producer: %v", outs[0].Err)
	}
	if !errors.Is(outs[1].Err, context.Canceled) {
		t.Errorf("consumer: err = %v, want context.Canceled", outs[1].Err)
	}
}
