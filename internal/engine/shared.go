// Per-run shared cells. Jobs in one RunJobs call may need the same
// derived fact — the claims check reads what the table, figure and
// study jobs already measured — and computing it twice doubles the
// run's cost. RunJobsObserved therefore hands every job a context
// carrying one fresh scope, and Shared computes a keyed value at most
// once per scope. The scope lives exactly as long as the run: running
// the same job list again computes everything again, so no value ever
// crosses runs.

package engine

import (
	"context"
	"fmt"
	"sync"
)

// scopeKey is the context key of a run's *scope.
type scopeKey struct{}

// scope holds one run's cells, created on first use of their key.
type scope struct {
	mu    sync.Mutex
	cells map[any]*sharedCell
}

// sharedCell is one key's value; done closes once val and err are set.
type sharedCell struct {
	done chan struct{}
	val  any
	err  error
}

// withScope returns ctx carrying a fresh, empty scope.
func withScope(ctx context.Context) context.Context {
	return context.WithValue(ctx, scopeKey{}, &scope{})
}

// Shared returns the value of key in the run that ctx belongs to,
// calling fn to compute it only if no job of that run has yet. fn runs
// on the calling goroutine; concurrent callers of the same key wait
// for the first call's result instead of computing it again, and stop
// waiting with ctx.Err() if the run is cancelled. A panic in fn is
// returned as an error, to the caller and to every waiter. Without a
// scope in ctx (a job run by hand, outside RunJobs) Shared just calls
// fn. key must be comparable; every caller of a key must use the same
// T.
func Shared[T any](ctx context.Context, key any, fn func() (T, error)) (T, error) {
	s, _ := ctx.Value(scopeKey{}).(*scope)
	if s == nil {
		return fn()
	}
	s.mu.Lock()
	c, ok := s.cells[key]
	if !ok {
		if s.cells == nil {
			s.cells = make(map[any]*sharedCell)
		}
		c = &sharedCell{done: make(chan struct{})}
		s.cells[key] = c
	}
	s.mu.Unlock()
	if !ok {
		compute(c, key, fn)
	} else {
		select {
		case <-c.done:
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
	v, _ := c.val.(T)
	return v, c.err
}

// compute fills the cell from fn and releases its waiters, also when
// fn panics.
func compute[T any](c *sharedCell, key any, fn func() (T, error)) {
	defer func() {
		if r := recover(); r != nil {
			c.val, c.err = nil, fmt.Errorf("engine: shared %v panicked: %v", key, r)
		}
		close(c.done)
	}()
	v, err := fn()
	c.val, c.err = v, err
}
