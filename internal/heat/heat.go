// Package heat tracks per-version read heat: cheap sharded counters
// with exponential (EWMA-style) decay, bumped on every checkout, path
// checkout, or diff read, and summarized as a top-k snapshot. It is the
// observed-workload half of the plan observatory: the planner predicts
// each version's recreation cost, the tracker records which versions
// traffic actually touches, and /planz renders both side by side so an
// operator (or, eventually, an adaptive planner — ROADMAP item 3, step
// 4) can see where prediction and reality diverge.
//
// Scores decay continuously with a fixed half-life (DefaultHalfLife, 5
// minutes): a bump adds 1 to the version's score, and a score s
// observed t seconds later reads s·2^(−t/halfLife). Decay is applied
// lazily on access, so an idle version costs nothing. Bumps take one
// shard mutex each — versions hash across shards, so concurrent readers
// of different versions rarely contend — and a snapshot locks each
// shard once.
package heat

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultHalfLife is the score decay half-life of every Tracker New
// returns.
const DefaultHalfLife = 5 * time.Minute

// defaultShards is the shard count of every Tracker New returns.
// Versions are dense small integers, so id % shards spreads adjacent
// hot versions across different mutexes.
const defaultShards = 16

// maxPerShard bounds a shard's entry map; when exceeded, entries whose
// decayed score has fallen below coldScore are pruned during the next
// bump. Versions are dense ids, so this only matters for repositories
// with very long histories under scanning reads.
const (
	maxPerShard = 4096
	coldScore   = 0.01
)

// Entry is one version's heat in a snapshot.
type Entry struct {
	Version int32   `json:"version"`
	Score   float64 `json:"score"` // decayed to snapshot time
	Reads   int64   `json:"reads"` // raw bump count, never decayed
}

type slot struct {
	score float64
	last  int64 // unix nanos of the last decay application
	reads int64
}

type shard struct {
	mu sync.Mutex
	m  map[int32]*slot
}

// Tracker is a sharded, decaying per-version read counter. All methods
// are safe for concurrent use.
type Tracker struct {
	halfLife float64 // seconds
	now      func() time.Time
	shards   []shard
	bumps    atomic.Int64
}

// New returns an empty Tracker decaying at DefaultHalfLife.
func New() *Tracker {
	return newTracker(DefaultHalfLife, defaultShards, time.Now)
}

// newTracker is New with the half-life, shard count and clock given, so
// tests can run decay on a fake clock.
func newTracker(halfLife time.Duration, shards int, now func() time.Time) *Tracker {
	t := &Tracker{halfLife: halfLife.Seconds(), now: now, shards: make([]shard, shards)}
	for i := range t.shards {
		t.shards[i].m = make(map[int32]*slot)
	}
	return t
}

// decayed returns s's score decayed from its last touch to nowNanos.
func (t *Tracker) decayed(s *slot, nowNanos int64) float64 {
	dt := float64(nowNanos-s.last) / float64(time.Second)
	if dt <= 0 {
		return s.score
	}
	return s.score * math.Exp2(-dt/t.halfLife)
}

// Bump records one read of version v.
func (t *Tracker) Bump(v int32) {
	sh := &t.shards[uint32(v)%uint32(len(t.shards))]
	now := t.now().UnixNano()
	sh.mu.Lock()
	s := sh.m[v]
	if s == nil {
		if len(sh.m) >= maxPerShard {
			for k, old := range sh.m {
				if t.decayed(old, now) < coldScore {
					delete(sh.m, k)
				}
			}
		}
		s = &slot{}
		sh.m[v] = s
	}
	s.score = t.decayed(s, now) + 1
	s.last = now
	s.reads++
	sh.mu.Unlock()
	t.bumps.Add(1)
}

// Bumps reports the total reads recorded since the tracker was created
// (pruning never subtracts).
func (t *Tracker) Bumps() int64 {
	return t.bumps.Load()
}

// Tracked reports how many versions currently hold a heat entry.
func (t *Tracker) Tracked() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// TopK returns the k hottest versions, scores decayed to now, hottest
// first (ties broken by lower version id for deterministic output).
// k <= 0 returns nil.
func (t *Tracker) TopK(k int) []Entry {
	if k <= 0 {
		return nil
	}
	now := t.now().UnixNano()
	var all []Entry
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for v, s := range sh.m {
			if sc := t.decayed(s, now); sc >= coldScore {
				all = append(all, Entry{Version: v, Score: sc, Reads: s.reads})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Version < all[j].Version
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
