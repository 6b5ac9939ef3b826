package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistogramZeroSamples pins every read path on a histogram that
// has never observed anything: no panics, all zeros, quantiles clamped.
func TestHistogramZeroSamples(t *testing.T) {
	var h Histogram
	if h.Count() != 0 {
		t.Fatalf("Count = %d", h.Count())
	}
	s := h.Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("Quantile(%g) on empty = %v, want 0", q, got)
		}
	}
	if s.Mean() != 0 || s.Max != 0 || s.Sum != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	sum := h.Summary()
	if sum.Count != 0 || sum.MeanUS != 0 || sum.P50US != 0 || sum.P99US != 0 || sum.MaxUS != 0 {
		t.Fatalf("empty summary = %+v", sum)
	}
}

// TestHistogramSingleSample: every quantile of a one-sample histogram
// is that sample (clamped to the exact max), and the mean is exact.
func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	const d = 1234567 * time.Nanosecond
	h.Observe(d)
	s := h.Snapshot()
	if s.Count != 1 || s.Max != d || s.Mean() != d {
		t.Fatalf("snapshot = %+v", s)
	}
	for _, q := range []float64{0, 0.001, 0.5, 0.999, 1} {
		if got := s.Quantile(q); got != d {
			t.Errorf("Quantile(%g) = %v, want exactly %v (max-clamped)", q, got, d)
		}
	}
}

// TestHistogramOverflowBucket drives values at and beyond the top of
// the bucket layout: MaxInt64 must land in a valid bucket, quantiles
// must clamp to the exact observed max, and nothing may panic or wrap.
func TestHistogramOverflowBucket(t *testing.T) {
	if idx := bucketIndex(math.MaxInt64); idx < 0 || idx >= numBucket {
		t.Fatalf("bucketIndex(MaxInt64) = %d out of range [0, %d)", idx, numBucket)
	}
	var h Histogram
	h.Observe(time.Duration(math.MaxInt64))
	h.Observe(time.Microsecond)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != time.Duration(math.MaxInt64) {
		t.Fatalf("max = %d, want MaxInt64", s.Max)
	}
	// The p99 rank lands in the overflow bucket, whose upper bound
	// saturates; the max clamp must bring it back to the exact value.
	if got := s.Quantile(0.99); got != time.Duration(math.MaxInt64) {
		t.Fatalf("Quantile(0.99) = %d, want exact max", got)
	}
	if got := s.Quantile(0.5); got > 2*time.Microsecond {
		t.Fatalf("Quantile(0.5) = %v, want ~1µs (overflow sample must not smear the median)", got)
	}
}

// TestHistogramConcurrentObserveDuringSnapshot races Observe against
// Snapshot/Quantile readers. Run under -race this pins the lock-free
// contract; in any mode it checks snapshots are internally consistent
// (a snapshot's bucket total equals its Count, monotonically growing).
func TestHistogramConcurrentObserveDuringSnapshot(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := time.Duration(w+1) * time.Microsecond
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(d)
				}
			}
		}(w)
	}
	var last uint64
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		if s.Count < last {
			t.Fatalf("snapshot count went backwards: %d -> %d", last, s.Count)
		}
		last = s.Count
		if s.Count > 0 {
			q := s.Quantile(0.5)
			if q <= 0 || q > 4*time.Microsecond {
				t.Fatalf("mid-traffic median = %v, want (0, 4µs]", q)
			}
			if s.Max > 4*time.Microsecond {
				t.Fatalf("max = %v", s.Max)
			}
		}
	}
	close(stop)
	wg.Wait()
	// Final snapshot is exact once writers stop.
	s := h.Snapshot()
	if s.Count != h.Count() {
		t.Fatalf("settled snapshot count %d != live count %d", s.Count, h.Count())
	}
}
