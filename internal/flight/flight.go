// Package flight deduplicates concurrent identical work (singleflight):
// callers of Group.Do with the same key share one execution of fn. It
// is the one implementation, behind store.Checkout (key: version).
//
// Unlike a plain singleflight, waiting is cancellable and cancellation
// is never contagious: a follower stops waiting when its own context
// ends, and a leader that failed with a context error — its caller gave
// up or ran out of time, which says nothing about the work — makes each
// follower run again as leader instead of inheriting that error.
package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// errLeaderPanicked is what followers receive when the leader's fn
// panicked; the panic itself propagates on the leader's goroutine.
var errLeaderPanicked = errors.New("flight: leader panicked")

// call is one in-flight execution followers can join.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Group runs at most one fn per key at a time. The zero value is ready
// to use; a Group must not be copied after first use.
type Group[K comparable, V any] struct {
	mu     sync.Mutex
	calls  map[K]*call[V]
	shared atomic.Int64
}

// Do returns fn's result for key, running fn itself (the leader) unless
// an execution for key is already in flight, in which case it waits for
// that one (a follower; shared reports this). fn runs on the leader's
// goroutine, and the key is released when fn returns or panics, so a
// later Do runs fn afresh — Do caches nothing. A follower whose ctx
// ends first returns ctx.Err() and leaves the leader undisturbed.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	for {
		g.mu.Lock()
		c, ok := g.calls[key]
		if !ok {
			break // g.mu still held
		}
		g.mu.Unlock()
		select {
		case <-c.done:
			if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
				// The leader died of its own cancellation or deadline — a
				// caller-specific outcome. Retry as leader.
				if err := ctx.Err(); err != nil {
					return v, true, err
				}
				continue
			}
			g.shared.Add(1)
			return c.val, true, c.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	c := &call[V]{done: make(chan struct{}), err: errLeaderPanicked}
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, false, c.err
}

// Shared reports how many Do calls were answered with another call's
// result instead of running fn.
func (g *Group[K, V]) Shared() int64 { return g.shared.Load() }
