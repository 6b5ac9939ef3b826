package store

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/diff"
	"repro/internal/graph"
	"repro/internal/trace"
)

// Checkout reconstructs version v under the installed plan: it walks the
// retrieval forest from v up to the nearest materialized (or cached)
// ancestor and applies the stored edit scripts forward — the retrieval
// process the paper's R(v) models. Concurrent checkouts of the same
// version share one reconstruction (flight.Group: a follower whose
// leader was cancelled reconstructs for itself) and results land in the
// LRU cache. No store lock is held while waiting on a flight or fetching
// objects from the backend, so slow (e.g. disk) reconstructions never
// block commits, migrations, or checkouts of other versions. The
// returned slice is shared with the cache: do not modify it.
func (s *Store) Checkout(ctx context.Context, v graph.NodeID) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := trace.StartSpan(ctx, "store.checkout")
	defer span.End()
	s.checkouts.Add(1)
	if lines, ok := s.cache.Get(v); ok {
		s.cacheHits.Add(1)
		span.SetAttr("cache", "hit")
		return lines, nil
	}
	span.SetAttr("cache", "miss")
	lines, shared, err := s.flights.Do(ctx, v, func() ([]string, error) {
		lines, err := s.reconstruct(ctx, v)
		if err == nil {
			s.cache.Put(v, lines, linesSize(lines))
		}
		return lines, err
	})
	if shared {
		span.SetAttr("flight", "follower")
	}
	return lines, err
}

// maxPlanRetries bounds how often one checkout re-snapshots after losing
// objects to concurrent migrations. Migrations are rare (every
// ReplanEvery commits), so a single retry almost always suffices.
const maxPlanRetries = 4

// reconstruct rebuilds v's content. Each attempt snapshots the retrieval
// path under the read lock, releases it, and fetches the objects
// lock-free; if a concurrent Install garbage-collects a snapshotted
// object before the fetch, the resulting ErrNotFound triggers a fresh
// snapshot under the new plan. Under pathological plan churn (migrations
// completing faster than the fetch) the final attempt degrades to
// fetching under the read lock, which blocks the next migration's swap —
// and therefore its GC — guaranteeing progress.
func (s *Store) reconstruct(ctx context.Context, v graph.NodeID) ([]string, error) {
	for attempt := 0; attempt < maxPlanRetries; attempt++ {
		lines, err := s.tryReconstruct(ctx, v)
		if errors.Is(err, ErrNotFound) {
			s.planRetries.Add(1)
			continue
		}
		return lines, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap, err := s.snapshotPathLocked(ctx, v)
	if err != nil {
		return nil, err
	}
	return s.fetchSnapshot(ctx, v, snap)
}

// pathSnapshot is one attempt's view of a retrieval path: the base the
// walk terminated at (cached content, or a blob object to fetch) and the
// delta objects to apply, ordered from v upward.
type pathSnapshot struct {
	base    []string // non-nil when a cached ancestor terminated the walk
	baseKey Key      // blob/manifest object otherwise
	deltas  []Key    // edit scripts v-ward, applied in reverse
}

// snapshotPathLocked walks the retrieval forest, resolving every object
// key the reconstruction needs without touching the backend; s.mu must
// be held (read or write).
func (s *Store) snapshotPathLocked(ctx context.Context, v graph.NodeID) (pathSnapshot, error) {
	if int(v) < 0 || int(v) >= len(s.parentEdge) {
		return pathSnapshot{}, fmt.Errorf("store: %w %d (have %d)", ErrUnknownVersion, v, len(s.parentEdge))
	}
	var snap pathSnapshot
	// Walk up until a cached version or a materialized blob terminates
	// the path. Cached ancestors shortcut deep chains for free.
	for x := v; ; {
		if lines, ok := s.cache.Get(x); ok {
			snap.base = lines
			return snap, nil
		}
		if keys, ok := s.blobs[x]; ok {
			snap.baseKey = keys[len(keys)-1]
			return snap, nil
		}
		e := s.parentEdge[x]
		if e == graph.None {
			return pathSnapshot{}, fmt.Errorf("store: version %d not retrievable under installed plan", x)
		}
		d, ok := s.deltas[graph.EdgeID(e)]
		if !ok {
			return pathSnapshot{}, fmt.Errorf("store: delta %d not stored", e)
		}
		snap.deltas = append(snap.deltas, d.key)
		x = d.from
		if err := ctx.Err(); err != nil {
			return pathSnapshot{}, err
		}
	}
}

// tryReconstruct performs one snapshot-then-fetch attempt with no lock
// held across the fetch. An ErrNotFound from the backend means a
// migration collected a snapshotted object; the caller retries against
// the new plan.
func (s *Store) tryReconstruct(ctx context.Context, v graph.NodeID) ([]string, error) {
	s.mu.RLock()
	snap, err := s.snapshotPathLocked(ctx, v)
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return s.fetchSnapshot(ctx, v, snap)
}

// fetchSnapshot materializes a snapshotted retrieval path: fetch (or
// reuse) the base, then apply the edit scripts source -> v.
func (s *Store) fetchSnapshot(ctx context.Context, v graph.NodeID, snap pathSnapshot) ([]string, error) {
	_, span := trace.StartSpan(ctx, "store.read")
	defer span.End()
	span.SetAttrInt("deltas", int64(len(snap.deltas)))
	// Attribute the read tier of a traced request when the backend
	// packs: counter deltas around this fetch. Concurrent checkouts share
	// the counters, so under load the split is approximate — still enough
	// to tell a packed trace from a loose one.
	if pb, ok := s.backend.(PackStatser); ok && span != nil {
		before := pb.PackStats()
		defer func() {
			after := pb.PackStats()
			span.SetAttrInt("pack.read", after.PackReads-before.PackReads)
			span.SetAttrInt("loose.read", after.LooseReads-before.LooseReads)
		}()
	}
	base := snap.base
	var err error
	if base == nil {
		base, err = getBlobObject(s.backend.Get, snap.baseKey)
		if err != nil {
			return nil, fmt.Errorf("store: blob of version %d: %w", v, err)
		}
	}
	// Apply the edit scripts source -> v. Every step but the last writes
	// into a pooled scratch buffer, so past its base a path allocates one
	// slice of lines, the one it returns, however many deltas it applies.
	var sc *lineScratch
	if len(snap.deltas) > 1 {
		sc = lineScratchPool.Get().(*lineScratch)
		defer sc.release()
	}
	for i := len(snap.deltas) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		payload, err := s.backend.Get(snap.deltas[i])
		if err != nil {
			return nil, fmt.Errorf("store: delta object %s: %w", snap.deltas[i], err)
		}
		d, err := DecodeDelta(payload)
		if err != nil {
			return nil, fmt.Errorf("store: delta object %s: %w", snap.deltas[i], err)
		}
		if i == 0 {
			base, err = d.Apply(base)
		} else {
			base, err = sc.apply(i%2, d, base)
		}
		if err != nil {
			return nil, fmt.Errorf("store: applying delta %s: %w", snap.deltas[i], err)
		}
		s.deltaApplies.Add(1)
	}
	return base, nil
}

// lineScratch is the pair of buffers a retrieval path's intermediate
// versions are applied into, alternately, so a step never writes the
// buffer it reads. Neither is ever the cached base a path starts from or
// the slice a checkout returns. A buffer's length is the part its last
// step wrote; everything past it is zero.
type lineScratch [2][]string

var lineScratchPool = sync.Pool{New: func() any { return new(lineScratch) }}

// apply writes d applied to src into buffer j and returns it.
func (sc *lineScratch) apply(j int, d diff.Delta, src []string) ([]string, error) {
	// Clear what the buffer holds first: a shorter target would leave
	// lines of an older step past its length.
	clear(sc[j])
	out, err := d.ApplyTo(sc[j], src)
	if err != nil {
		// A failed apply may have written past the length; drop the
		// buffer rather than clear its whole capacity.
		sc[j] = nil
		return nil, err
	}
	sc[j] = out
	return out, nil
}

// release clears the buffers and returns them to the pool, so that a
// pooled buffer pins no payload of the objects it was applied from.
func (sc *lineScratch) release() {
	for j := range sc {
		clear(sc[j])
		sc[j] = sc[j][:0]
	}
	lineScratchPool.Put(sc)
}

// BatchItem is one CheckoutBatch outcome.
type BatchItem struct {
	Lines []string
	Err   error
}

// CheckoutBatch reconstructs many versions across a pool of
// runtime.GOMAXPROCS(0) workers. Only min(GOMAXPROCS, len(ids))
// goroutines ever exist, so an arbitrarily large batch cannot exhaust
// memory. Results are positional; duplicates within a batch are
// deduplicated through the cache and singleflight layers. A ctx
// cancellation marks not-yet-dispatched items with ctx.Err().
func (s *Store) CheckoutBatch(ctx context.Context, ids []graph.NodeID) []BatchItem {
	out := make([]BatchItem, len(ids))
	workers := min(runtime.GOMAXPROCS(0), len(ids))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i].Lines, out[i].Err = s.Checkout(ctx, ids[i])
			}
		}()
	}
dispatch:
	for i := range ids {
		select {
		case idx <- i:
		case <-ctx.Done():
			for j := i; j < len(ids); j++ {
				out[j].Err = ctx.Err()
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return out
}
