package serve

import (
	"context"
	"sync/atomic"
	"time"
)

// Admission runs at one setting. Capacity is 4×GOMAXPROCS execution
// slots (newServer), the queue holds twice that, a queued request waits
// at most queueWait, and a shed one is told to come back in
// retryAfterHeader seconds.
const (
	queueWait        = 100 * time.Millisecond
	retryAfterHeader = "1"
)

// limiter is the bounded admission controller: capacity requests
// execute concurrently, up to cap(queue) more wait at most wait for a
// slot, and everything beyond that is shed immediately. Shedding at the
// door keeps tail latency bounded under overload — the alternative
// (unbounded goroutines all contending for the store) makes every
// request slow instead of making excess requests fail fast.
type limiter struct {
	sem   chan struct{} // execution slots
	queue chan struct{} // waiting slots
	wait  time.Duration

	accepted      atomic.Int64
	queued        atomic.Int64 // accepted requests that had to wait
	rejectedFull  atomic.Int64 // shed because the queue was full
	rejectedSlow  atomic.Int64 // shed after waiting its full wait
	rejectedOther atomic.Int64 // caller gave up (context canceled) while queued
}

// newLimiter returns a limiter with capacity execution slots and
// queueCap waiting slots; serving uses 4×GOMAXPROCS, 2× that and
// queueWait, tests smaller ones.
func newLimiter(capacity, queueCap int, wait time.Duration) *limiter {
	return &limiter{
		sem:   make(chan struct{}, capacity),
		queue: make(chan struct{}, queueCap),
		wait:  wait,
	}
}

// acquire claims an execution slot, waiting in the bounded queue when
// the server is at capacity. It reports false when the request must be
// shed (queue full, queue wait exceeded, or caller canceled).
func (l *limiter) acquire(ctx context.Context) bool {
	select {
	case l.sem <- struct{}{}:
		l.accepted.Add(1)
		return true
	default:
	}
	// At capacity: take a queue slot or shed immediately.
	select {
	case l.queue <- struct{}{}:
	default:
		l.rejectedFull.Add(1)
		return false
	}
	defer func() { <-l.queue }()
	timer := time.NewTimer(l.wait)
	defer timer.Stop()
	select {
	case l.sem <- struct{}{}:
		l.accepted.Add(1)
		l.queued.Add(1)
		return true
	case <-timer.C:
		l.rejectedSlow.Add(1)
		return false
	case <-ctx.Done():
		l.rejectedOther.Add(1)
		return false
	}
}

func (l *limiter) release() { <-l.sem }

// AdmissionStats snapshots the limiter for /statsz.
type AdmissionStats struct {
	Capacity int   `json:"capacity"`
	InFlight int   `json:"in_flight"`
	QueueLen int   `json:"queue_len"`
	QueueCap int   `json:"queue_cap"`
	Accepted int64 `json:"accepted"`
	Queued   int64 `json:"queued"`
	Rejected int64 `json:"rejected"`

	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedWait      int64 `json:"rejected_wait"`
	RejectedCanceled  int64 `json:"rejected_canceled"`
}

func (l *limiter) stats() AdmissionStats {
	s := AdmissionStats{
		Capacity:          cap(l.sem),
		InFlight:          len(l.sem),
		QueueLen:          len(l.queue),
		QueueCap:          cap(l.queue),
		Accepted:          l.accepted.Load(),
		Queued:            l.queued.Load(),
		RejectedQueueFull: l.rejectedFull.Load(),
		RejectedWait:      l.rejectedSlow.Load(),
		RejectedCanceled:  l.rejectedOther.Load(),
	}
	s.Rejected = s.RejectedQueueFull + s.RejectedWait + s.RejectedCanceled
	return s
}
