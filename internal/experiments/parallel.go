package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// runSlots computes run(i) for every i in [0, n) on at most
// runtime.GOMAXPROCS(0) goroutines and stores each result in slot i,
// so the returned slice does not depend on which run finished first.
// order, a permutation of [0, n), lists the indices in dispatch order
// (nil dispatches 0..n-1); it only balances the workers. Every run
// executes even if another fails, and the error returned is the one of
// the lowest failing index, so it is deterministic too. A panic in run
// becomes its slot's error. No goroutine outlives the call.
func runSlots[T any](n int, order []int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if order != nil {
					i = order[i]
				}
				// Distinct runs write distinct slots; wg.Wait orders
				// every write before the caller's reads.
				out[i], errs[i] = runSlot(i, run)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runSlot calls run(i), converting a panic into an error.
func runSlot[T any](i int, run func(i int) (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: run %d panicked: %v", i, r)
		}
	}()
	return run(i)
}

// onceVal is a value computed at most once: callers of get that arrive
// while the first call runs wait for its result, and a panic in that
// call becomes the error every caller gets.
type onceVal[T any] struct {
	once sync.Once
	val  T
	err  error
}

// get returns the value, computing it with fn on the first call; what
// names the value in a panic's error.
func (o *onceVal[T]) get(what string, fn func() (T, error)) (T, error) {
	o.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				o.err = fmt.Errorf("experiments: %s panicked: %v", what, r)
			}
		}()
		o.val, o.err = fn()
	})
	return o.val, o.err
}
