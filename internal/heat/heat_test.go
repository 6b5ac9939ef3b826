package heat

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable clock for deterministic decay.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestDecayHalfLife pins the decay law: a score observed exactly one
// half-life after its bump reads half, two half-lives a quarter, and a
// long-idle version falls below the cold threshold and out of TopK.
func TestDecayHalfLife(t *testing.T) {
	clk := newFakeClock()
	tr := newTracker(time.Minute, defaultShards, clk.now)
	tr.Bump(0)

	clk.advance(time.Minute)
	top := tr.TopK(10)
	if len(top) != 1 || top[0].Version != 0 {
		t.Fatalf("TopK after one half-life = %+v, want version 0", top)
	}
	if got := top[0].Score; math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("score after one half-life = %g, want 0.5", got)
	}

	clk.advance(time.Minute)
	if got := tr.TopK(10)[0].Score; math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("score after two half-lives = %g, want 0.25", got)
	}

	// 2^-10 < coldScore: the version disappears from snapshots (though
	// the slot survives until a prune needs the room).
	clk.advance(8 * time.Minute)
	if top := tr.TopK(10); len(top) != 0 {
		t.Fatalf("cold version still in TopK: %+v", top)
	}
	if tr.Tracked() != 1 {
		t.Fatalf("Tracked after cooling = %d, want the slot retained", tr.Tracked())
	}
	if tr.Bumps() != 1 {
		t.Fatalf("Bumps = %d, want 1 (decay never subtracts)", tr.Bumps())
	}
}

// TestBumpAccumulates pins that a re-bump adds 1 to the decayed score
// rather than resetting it, and that Reads counts raw bumps undecayed.
func TestBumpAccumulates(t *testing.T) {
	clk := newFakeClock()
	tr := newTracker(time.Minute, defaultShards, clk.now)
	tr.Bump(7)
	clk.advance(time.Minute)
	tr.Bump(7) // 0.5 decayed + 1

	top := tr.TopK(1)
	if len(top) != 1 {
		t.Fatalf("TopK = %+v, want one entry", top)
	}
	if got := top[0].Score; math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("score after decayed re-bump = %g, want 1.5", got)
	}
	if top[0].Reads != 2 {
		t.Fatalf("reads = %d, want 2", top[0].Reads)
	}
}

// TestTopKOrdering pins hottest-first ordering with deterministic
// version-id tie-breaks and the k truncation.
func TestTopKOrdering(t *testing.T) {
	clk := newFakeClock()
	tr := newTracker(time.Minute, defaultShards, clk.now)
	for v := int32(0); v < 8; v++ {
		for i := int32(0); i <= v; i++ {
			tr.Bump(v) // version v gets v+1 bumps
		}
	}
	top := tr.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK(3) returned %d entries", len(top))
	}
	for i, want := range []int32{7, 6, 5} {
		if top[i].Version != want {
			t.Fatalf("TopK[%d] = version %d, want %d (full: %+v)", i, top[i].Version, want, top)
		}
	}
	// Equal scores break ties toward the lower id.
	tr2 := newTracker(time.Minute, defaultShards, clk.now)
	tr2.Bump(5)
	tr2.Bump(2)
	if top := tr2.TopK(2); top[0].Version != 2 || top[1].Version != 5 {
		t.Fatalf("tie-break order = %+v, want version 2 first", top)
	}
}

// TestPruneColdEntries fills one shard past its bound, lets everything
// go cold, and checks the next insert prunes the dead weight.
func TestPruneColdEntries(t *testing.T) {
	clk := newFakeClock()
	tr := newTracker(time.Second, 1, clk.now)
	for v := int32(0); v < maxPerShard; v++ {
		tr.Bump(v)
	}
	if tr.Tracked() != maxPerShard {
		t.Fatalf("Tracked = %d, want %d", tr.Tracked(), maxPerShard)
	}
	clk.advance(time.Minute) // 60 half-lives: everything is cold
	tr.Bump(int32(maxPerShard))
	if got := tr.Tracked(); got != 1 {
		t.Fatalf("Tracked after prune = %d, want 1 (only the fresh bump)", got)
	}
	if tr.Bumps() != maxPerShard+1 {
		t.Fatalf("Bumps = %d, want %d (pruning never subtracts)", tr.Bumps(), maxPerShard+1)
	}
}

// TestConcurrentBumpSnapshot hammers Bump against TopK/Tracked/Bumps
// from many goroutines (run with -race). Correctness here is "no race,
// no panic, totals add up".
func TestConcurrentBumpSnapshot(t *testing.T) {
	tr := newTracker(time.Hour, defaultShards, time.Now)
	const workers, bumpsEach = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < bumpsEach; i++ {
				tr.Bump(int32((w*31 + i) % 64))
			}
		}(w)
	}
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = tr.TopK(10)
				_ = tr.Tracked()
				_ = tr.Bumps()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if tr.Bumps() != workers*bumpsEach {
		t.Fatalf("Bumps = %d, want %d", tr.Bumps(), workers*bumpsEach)
	}
	if got := tr.Tracked(); got != 64 {
		t.Fatalf("Tracked = %d, want 64 distinct versions", got)
	}
	top := tr.TopK(64)
	var reads int64
	for _, e := range top {
		reads += e.Reads
	}
	if reads != workers*bumpsEach {
		t.Fatalf("sum of reads = %d, want %d", reads, workers*bumpsEach)
	}
}
