package client

import (
	"context"
	"sync"
	"time"

	"repro/versioning"
)

// coalescer merges one view's concurrent Checkout calls into batch POST
// /checkout requests. The first checkout of a quiet period opens a batch
// and arms a window timer; calls landing inside the window append to it;
// when the window closes (or the batch hits maxIDs) one HTTP request
// carries every id and the positional results fan back out to the
// waiting callers. A caller whose context expires abandons its slot
// without disturbing the batch (result channels are buffered).
type coalescer struct {
	c      *Client // the view whose batch endpoint carries the ids
	window time.Duration
	maxIDs int

	mu      sync.Mutex
	pending *coBatch

	// batches and merged are test/diagnostic counters (guarded by mu).
	batches int64
	merged  int64
}

type coBatch struct {
	ids     []versioning.NodeID
	waiters []chan coResult
	timer   *time.Timer
}

type coResult struct {
	lines []string
	err   error
}

func newCoalescer(c *Client, window time.Duration, maxIDs int) *coalescer {
	return &coalescer{c: c, window: window, maxIDs: maxIDs}
}

// checkout joins (or opens) the pending batch and waits for its share
// of the result.
func (co *coalescer) checkout(ctx context.Context, id versioning.NodeID) ([]string, error) {
	ch := make(chan coResult, 1)
	co.mu.Lock()
	b := co.pending
	if b == nil {
		b = &coBatch{}
		co.pending = b
		co.batches++
		b.timer = time.AfterFunc(co.window, func() { co.flush(b) })
	} else {
		co.merged++
	}
	b.ids = append(b.ids, id)
	b.waiters = append(b.waiters, ch)
	full := len(b.ids) >= co.maxIDs
	if full {
		co.pending = nil
		b.timer.Stop()
	}
	co.mu.Unlock()
	if full {
		go co.run(b)
	}
	select {
	case res := <-ch:
		return res.lines, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// flush is the window-timer callback. It runs the batch only if it is
// the one to detach it: when the timer fires concurrently with a
// size-triggered flush (or Close), whoever detached the batch runs it,
// and running it twice here would double-send every waiter's result.
func (co *coalescer) flush(b *coBatch) {
	co.mu.Lock()
	detached := co.pending == b
	if detached {
		co.pending = nil
	}
	co.mu.Unlock()
	if detached {
		co.run(b)
	}
}

// flushPending synchronously runs any batch still waiting for its
// window (used by Close so no waiter is stranded).
func (co *coalescer) flushPending() {
	co.mu.Lock()
	b := co.pending
	co.pending = nil
	co.mu.Unlock()
	if b != nil {
		b.timer.Stop()
		co.run(b)
	}
}

// run executes one batch request and fans results out positionally.
// The batch runs under its own context: the member contexts belong to
// individual callers, any of whom may bail without canceling the rest.
func (co *coalescer) run(b *coBatch) {
	items, err := co.c.checkoutBatchRaw(context.Background(), b.ids)
	if err != nil {
		for _, ch := range b.waiters {
			ch <- coResult{err: err}
		}
		return
	}
	for i, ch := range b.waiters {
		res := coResult{lines: items[i].Lines}
		if items[i].Error != "" {
			res.lines = nil
			res.err = itemError(items[i])
		}
		ch <- res
	}
}

// counters reports (batches flushed, calls merged into an existing
// batch) for tests.
func (co *coalescer) counters() (batches, merged int64) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.batches, co.merged
}
