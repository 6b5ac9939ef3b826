// Package metrics provides the lock-free latency instruments of the
// serving layer (per-endpoint counters behind dsvd's /statsz). The core
// type is Histogram: an HDR-style log-linear histogram over nanosecond
// durations with bounded memory (~15KB), constant-time concurrent
// Observe, and ~3% relative quantile error — cheap enough to sit on
// every request path of a hot server.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: values below 2^subBits nanoseconds get exact unit
// buckets; above that, each power-of-two octave is split into
// 2^subBits linear sub-buckets, bounding relative error by
// 1/2^subBits ≈ 3%.
const (
	subBits   = 5
	subCount  = 1 << subBits
	nGroups   = 64 - subBits // octaves above the linear region
	numBucket = (nGroups + 1) * subCount
)

// Histogram is a concurrent log-linear histogram of durations. The zero
// value is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	counts [numBucket]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds, exact
}

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < subCount {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // >= subBits
	minor := int(v>>(uint(exp)-subBits)) - subCount
	return (exp-subBits+1)*subCount + minor
}

// bucketUpper is the inclusive upper bound of bucket idx, the value
// Quantile reports for ranks landing in it (conservative: never under-
// reports a latency by more than the sub-bucket width).
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	g := idx/subCount - 1
	minor := idx % subCount
	exp := g + subBits
	return int64(subCount+minor+1)<<uint(exp-subBits) - 1
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	// max is published before the bucket and Snapshot reads it after the
	// buckets, so a snapshot never counts an observation above its Max
	// (Quantile clamps to Max: a stale 0 would zero every quantile).
	h.raiseMax(v)
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// raiseMax lifts max to at least v.
func (h *Histogram) raiseMax(v int64) {
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot captures a point-in-time copy for quantile queries. The
// copy is not atomic with respect to concurrent Observes, which can at
// worst smear a handful of in-flight samples — harmless for monitoring.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.counts {
		c := h.counts[i].Load()
		if c > 0 {
			s.counts = append(s.counts, bucketCount{idx: i, n: c})
			s.Count += c
		}
	}
	s.Max = time.Duration(h.max.Load()) // last: see Observe
	return s
}

type bucketCount struct {
	idx int
	n   uint64
}

// Snapshot is a frozen histogram state.
type Snapshot struct {
	Count  uint64
	Sum    time.Duration
	Max    time.Duration // exact
	counts []bucketCount
}

// Mean reports the arithmetic mean of the observations (0 when empty).
func (s Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile reports the q-quantile (q in [0,1]) with ~3% relative
// error, clamped to the exact observed maximum. Returns 0 when empty.
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for _, bc := range s.counts {
		seen += bc.n
		if seen >= rank {
			v := time.Duration(bucketUpper(bc.idx))
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// LatencySummary is the JSON shape of a histogram in /statsz:
// microsecond floats so dashboards need no unit juggling.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

// Summary renders the snapshot as a LatencySummary.
func (s Snapshot) Summary() LatencySummary {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return LatencySummary{
		Count:  s.Count,
		MeanUS: us(s.Mean()),
		P50US:  us(s.Quantile(0.50)),
		P95US:  us(s.Quantile(0.95)),
		P99US:  us(s.Quantile(0.99)),
		MaxUS:  us(s.Max),
	}
}

// Summary is shorthand for h.Snapshot().Summary().
func (h *Histogram) Summary() LatencySummary { return h.Snapshot().Summary() }
