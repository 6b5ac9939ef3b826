package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diff"
	"repro/internal/flight"
	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/hotcache"
	"repro/internal/plan"
)

// Options configures a Store.
type Options struct {
	// Backend holds the objects (nil = NewMemBackend()).
	Backend Backend
	// CacheEntries bounds the LRU cache of reconstructed versions:
	// 0 = 256 entries, negative disables caching.
	CacheEntries int
	// CacheBytes bounds the same cache by content bytes (0 = 64 MiB).
	// Whichever budget fills first evicts the least recently used.
	CacheBytes int64
}

// Store executes a storage plan: it persists exactly the bytes the plan
// commits to and reconstructs any version on demand. All methods are safe
// for concurrent use; Install and the incremental Add* methods may run
// concurrently with checkouts (checkouts observe either the old or the
// new plan, never a mix), but callers must serialize Install/Add*/
// SweepOrphans calls among themselves, as versioning.Repository does.
//
// Lock order: s.mu is never held across backend I/O — checkouts snapshot
// the retrieval path under the read lock and fetch objects lock-free,
// retrying if a concurrent migration garbage-collects an object from
// under them; Install and the Add* methods write objects before taking
// the write lock to publish them. cache.mu is a leaf lock: nothing is
// acquired while holding it.
//
// Returned content slices are shared with the cache: callers must not
// modify them.
type Store struct {
	backend  Backend
	cache    *hotcache.Cache[graph.NodeID, []string] // newContentCache
	maxStage int                                     // stageLimit; tests lower it

	// mu guards the installed-plan state below — pure in-memory metadata,
	// held only for map/slice access, never across backend I/O.
	mu         sync.RWMutex
	blobs      map[graph.NodeID][]Key       // materialized version -> its objects: chunks in order, root (blob or manifest) last
	deltas     map[graph.EdgeID]storedDelta // stored delta -> delta object and the edge it sits on
	parentEdge []int32                      // retrieval forest: edge into v (graph.None for materialized)
	refs       map[Key]int

	flights flight.Group[graph.NodeID, []string] // one reconstruction per version at a time

	checkouts      atomic.Int64
	cacheHits      atomic.Int64
	deltaApplies   atomic.Int64
	planRetries    atomic.Int64
	installs       atomic.Int64
	installMicros  atomic.Int64
	installObjects atomic.Int64
	installBytes   atomic.Int64
}

// storedDelta is a stored edit script. Both endpoints are kept, not only
// the one retrieval walks to, so that a migration can tell a new plan's
// edge is this very delta and take the object over.
type storedDelta struct {
	key      Key
	from, to graph.NodeID
}

// Stats summarizes a Store. It is the one declaration of the store's
// counters: versioning.RepositoryStats embeds it, so the JSON tags are
// the keys dsvd's /stats serves them under.
type Stats struct {
	Objects        int   `json:"objects"`         // objects in the backend (blobs, deltas, chunks, manifests)
	StoredBytes    int64 `json:"stored_bytes"`    // backend byte footprint
	Blobs          int   `json:"blobs"`           // materialized versions
	StoredDeltas   int   `json:"stored_deltas"`   // stored edit scripts
	Versions       int   `json:"-"`               // versions the installed plan covers
	CachedVersions int   `json:"cached_versions"` // reconstructed versions currently in the LRU
	CachedBytes    int64 `json:"cached_bytes"`    // byte-accounted footprint of the LRU
	Checkouts      int64 `json:"checkouts"`       // Checkout calls served
	CacheHits      int64 `json:"cache_hits"`      // checkouts answered from the LRU
	Coalesced      int64 `json:"coalesced"`       // checkouts answered by a concurrent identical checkout's reconstruction
	CacheRejected  int64 `json:"cache_rejected"`  // cache puts of a version larger than CacheBytes
	CacheEvicted   int64 `json:"cache_evicted"`   // cache entries evicted by the budget
	DeltaApplies   int64 `json:"delta_applies"`   // edit scripts applied during reconstructions
	PlanRetries    int64 `json:"plan_retries"`    // checkouts re-snapshotted after racing a migration

	// Migrations counts successful Installs and MigrationMicros the wall
	// time inside them; MigrationObjects and MigrationBytes total what
	// they newly wrote to the backend.
	Migrations       int64 `json:"migrations"`
	MigrationMicros  int64 `json:"migration_us_total"`
	MigrationObjects int64 `json:"migration_objects,omitempty"`
	MigrationBytes   int64 `json:"migration_bytes,omitempty"`

	// PackStats is the backend's pack tier, when it publishes packs (see
	// DiskBackend).
	PackStats
}

// New returns an empty Store.
func New(opt Options) *Store {
	b := opt.Backend
	if b == nil {
		b = NewMemBackend()
	}
	return &Store{
		backend:  b,
		cache:    newContentCache(opt.CacheEntries, opt.CacheBytes),
		maxStage: stageLimit,
		blobs:    make(map[graph.NodeID][]Key),
		deltas:   make(map[graph.EdgeID]storedDelta),
		refs:     make(map[Key]int),
	}
}

// Backend returns the backend the store runs on.
func (s *Store) Backend() Backend { return s.backend }

// Stats reports the store's current footprint and traffic counters.
func (s *Store) Stats() Stats {
	bs := s.backend.Stats()
	s.mu.RLock()
	blobs, deltas, versions := len(s.blobs), len(s.deltas), len(s.parentEdge)
	s.mu.RUnlock()
	cs := s.cache.Stats()
	st := Stats{
		Objects:          bs.Objects,
		StoredBytes:      bs.Bytes,
		Blobs:            blobs,
		StoredDeltas:     deltas,
		Versions:         versions,
		CachedVersions:   cs.Entries,
		CachedBytes:      cs.Bytes,
		Checkouts:        s.checkouts.Load(),
		CacheHits:        s.cacheHits.Load(),
		Coalesced:        s.flights.Shared(),
		CacheRejected:    cs.Rejected,
		CacheEvicted:     cs.Evictions,
		DeltaApplies:     s.deltaApplies.Load(),
		PlanRetries:      s.planRetries.Load(),
		Migrations:       s.installs.Load(),
		MigrationMicros:  s.installMicros.Load(),
		MigrationObjects: s.installObjects.Load(),
		MigrationBytes:   s.installBytes.Load(),
	}
	if pb, ok := s.backend.(PackStatser); ok {
		st.PackStats = pb.PackStats()
	}
	return st
}

// ContentFunc yields the full content of a version, however the caller
// can produce it (an ingest buffer, or a checkout under the previously
// installed plan during migration).
type ContentFunc func(v graph.NodeID) ([]string, error)

// stageLimit bounds the encoded payloads a stage holds: past it the stage
// publishes, so the first migration of a large repository goes out in
// several batches instead of sitting in memory whole.
const stageLimit = 8 << 20

// stage collects the objects a migration adds and hands them to the
// backend together: the unit of a durable write is what the migration
// adds, not one object (see BatchPutter). Its objects are in no journal.
type stage struct {
	s    *Store
	objs []Object
	size int // payload bytes in objs
}

func (st *stage) add(k Key, payload []byte) error {
	st.objs = append(st.objs, Object{Key: k, Payload: payload})
	if st.size += len(payload); st.size >= st.s.maxStage {
		return st.publish()
	}
	return nil
}

// publish hands what is staged to the backend and lets go of it.
func (st *stage) publish() error {
	err := putBatch(st.s.backend, st.objs)
	st.objs, st.size = nil, 0
	return err
}

// putBlobObject persists lines as a materialized version: small contents
// as one blob object, large contents as content-defined chunks behind a
// manifest so versions sharing runs of lines share chunk objects. Every
// object write goes through put; the returned keys are every object
// written, in order, the version's root object (blob or manifest) last.
func putBlobObject(lines []string, put func([]byte) (Key, error)) ([]Key, error) {
	if len(lines) < chunkThreshold {
		k, err := put(EncodeBlob(lines))
		if err != nil {
			return nil, err
		}
		return []Key{k}, nil
	}
	chunks := chunkLines(lines)
	keys := make([]Key, len(chunks), len(chunks)+1)
	for i, c := range chunks {
		k, err := put(encodeChunk(c))
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	root, err := put(encodeManifest(len(lines), keys))
	if err != nil {
		return nil, err
	}
	return append(keys, root), nil
}

// getBlobObject reads a materialized version back: a plain blob decodes
// directly, a manifest fans out to its chunk objects.
func getBlobObject(get func(Key) ([]byte, error), k Key) ([]string, error) {
	payload, err := get(k)
	if err != nil {
		return nil, err
	}
	if len(payload) > 0 && payload[0] == tagManifest {
		total, chunkKeys, err := decodeManifest(payload)
		if err != nil {
			return nil, err
		}
		lines := make([]string, 0, total)
		for _, ck := range chunkKeys {
			cp, err := get(ck)
			if err != nil {
				return nil, err
			}
			if lines, err = appendChunk(lines, cp); err != nil {
				return nil, err
			}
		}
		return lines, nil
	}
	return DecodeBlob(payload)
}

// migration is a plan split against the serving one: the objects the
// serving plan hands over as they are, and what is left to build.
type migration struct {
	blobs      map[graph.NodeID][]Key
	deltas     map[graph.EdgeID]storedDelta
	refs       map[Key]int
	needBlobs  []graph.NodeID // materialized by p, no blob under the serving plan
	needDeltas []graph.EdgeID // stored by p, not stored now with the same endpoints
	// servingRefs is the serving plan's own map. Install reads it outside
	// the lock: its callers serialize it with Add*, the only other writers.
	servingRefs map[Key]int
}

// planMigration splits p. A version's blob and an edge's edit script are
// deterministic functions of immutable version contents, so whatever the
// serving plan holds for a version p materializes, or for an edge p
// stores between the same two versions, is byte for byte what building
// it again would produce: it is taken over by key with its references (a
// manifest's chunks included) and never read, diffed, encoded or hashed.
func (s *Store) planMigration(g *graph.Graph, p *plan.Plan) migration {
	m := migration{
		blobs:  make(map[graph.NodeID][]Key),
		deltas: make(map[graph.EdgeID]storedDelta),
		refs:   make(map[Key]int),
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	m.servingRefs = s.refs
	for i, mat := range p.Materialized {
		v := graph.NodeID(i)
		if !mat {
			continue
		}
		if keys, ok := s.blobs[v]; ok {
			m.blobs[v] = keys
			for _, k := range keys {
				m.refs[k]++
			}
		} else {
			m.needBlobs = append(m.needBlobs, v)
		}
	}
	for i, stored := range p.Stored {
		e := graph.EdgeID(i)
		if !stored {
			continue
		}
		edge := g.Edge(e)
		if d, ok := s.deltas[e]; ok && d.from == edge.From && d.to == edge.To {
			m.deltas[e] = d
			m.refs[d.key]++
		} else {
			m.needDeltas = append(m.needDeltas, e)
		}
	}
	return m
}

// MigrationNeeds lists, in ascending order, the versions whose content
// Install(g, p, ...) will ask its ContentFunc for: those p materializes
// that have no blob yet and both endpoints of every edge p newly stores.
// Re-installing the serving plan needs none. Add* calls in between only
// shrink the set.
func (s *Store) MigrationNeeds(g *graph.Graph, p *plan.Plan) []graph.NodeID {
	if len(p.Materialized) != g.N() || len(p.Stored) != g.M() {
		return nil // Install refuses the shape
	}
	m := s.planMigration(g, p)
	need := make([]bool, g.N())
	for _, v := range m.needBlobs {
		need[v] = true
	}
	for _, e := range m.needDeltas {
		edge := g.Edge(e)
		need[edge.From], need[edge.To] = true, true
	}
	var out []graph.NodeID
	for v, n := range need {
		if n {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// Install switches the store to plan p for graph g. What the serving
// plan already holds is taken over by key (planMigration); for the rest
// it builds a blob per newly materialized version and an edit script per
// newly stored delta (computed deterministically from the endpoint
// contents) and publishes them to the backend together (stage). It then
// atomically swaps the serving state and garbage-collects objects the
// new plan no longer references. content is consulted once per version
// in MigrationNeeds (memoized internally), so the work is proportional to
// what the plan changed and the first Install into an empty store is the
// case with nothing to take over. All object writes and deletions happen
// outside the store lock: only the final metadata swap blocks checkouts,
// and only for a map swap.
//
// Install validates that p makes every version of g retrievable and
// refuses to install an infeasible plan, leaving the previous state
// serving.
func (s *Store) Install(g *graph.Graph, p *plan.Plan, content ContentFunc) error {
	installStart := time.Now()
	if len(p.Materialized) != g.N() || len(p.Stored) != g.M() {
		return fmt.Errorf("store: plan shape (%d, %d) does not match graph (%d, %d)",
			len(p.Materialized), len(p.Stored), g.N(), g.M())
	}
	// The retrieval forest doubles as the feasibility check: every
	// version must be reached from the materialized set over stored
	// deltas.
	dist, parents := graphalg.Dijkstra(g, p.MaterializedNodes(), graphalg.RetrievalWeight,
		func(id graph.EdgeID) bool { return p.Stored[id] })
	for v, d := range dist {
		if d >= graph.Infinite {
			return fmt.Errorf("store: plan leaves version %d unretrievable", v)
		}
	}

	memo := make(map[graph.NodeID][]string)
	lines := func(v graph.NodeID) ([]string, error) {
		if l, ok := memo[v]; ok {
			return l, nil
		}
		l, err := content(v)
		if err != nil {
			return nil, fmt.Errorf("store: content of version %d: %w", v, err)
		}
		memo[v] = l
		return l, nil
	}

	m := s.planMigration(g, p)
	st := stage{s: s}
	var wrote []Key // objects this Install adds to the backend
	var wroteBytes int64
	put := func(payload []byte) (Key, error) {
		k := KeyOf(payload)
		// An object either plan already references is in the backend,
		// whichever version or edge it was first written for.
		if m.refs[k] == 0 && m.servingRefs[k] == 0 {
			wrote = append(wrote, k)
			wroteBytes += int64(len(payload))
			if err := st.add(k, payload); err != nil {
				return Key{}, err
			}
		}
		m.refs[k]++
		return k, nil
	}
	build := func() error {
		for _, v := range m.needBlobs {
			l, err := lines(v)
			if err != nil {
				return err
			}
			keys, err := putBlobObject(l, put)
			if err != nil {
				return err
			}
			m.blobs[v] = keys
		}
		for _, e := range m.needDeltas {
			edge := g.Edge(e)
			a, err := lines(edge.From)
			if err != nil {
				return err
			}
			b, err := lines(edge.To)
			if err != nil {
				return err
			}
			k, err := put(EncodeDelta(diff.Compute(a, b)))
			if err != nil {
				return err
			}
			m.deltas[e] = storedDelta{key: k, from: edge.From, to: edge.To}
		}
		return nil
	}
	err := build()
	if err == nil {
		err = st.publish()
	}
	if err != nil {
		// Roll back what this Install wrote, none of which the serving
		// plan references, so a failed migration leaves no orphans.
		// Deleting a key no publish landed is a no-op.
		for _, k := range wrote {
			_ = s.backend.Delete(k)
		}
		return err
	}

	s.mu.Lock()
	s.blobs, s.deltas, s.parentEdge, s.refs = m.blobs, m.deltas, parents, m.refs
	s.mu.Unlock()

	// Garbage-collect objects only the old plan referenced. New objects
	// were written before the swap and old objects are deleted after it;
	// a checkout that snapshotted the old plan and loses an object to
	// this sweep detects the ErrNotFound and retries under the new plan.
	// The new plan is serving at this point, so a backend deletion
	// failure is not an Install failure: at worst an unreferenced object
	// lingers until the next sweep.
	for k := range m.servingRefs {
		if m.refs[k] == 0 {
			_ = s.backend.Delete(k)
		}
	}
	s.installs.Add(1)
	s.installMicros.Add(time.Since(installStart).Microseconds())
	s.installObjects.Add(int64(len(wrote)))
	s.installBytes.Add(wroteBytes)
	return nil
}

// RetrievalDepths reports, per version, how many stored deltas the
// installed plan applies to reconstruct it (0 = materialized). The
// forest is copied under the read lock (the live maps keep mutating
// under Add*/Install); the walk itself runs lock-free over the copy,
// memoized so the whole forest costs one pass.
func (s *Store) RetrievalDepths() []int {
	s.mu.RLock()
	parentEdge := append([]int32(nil), s.parentEdge...)
	edgeFrom := make(map[graph.EdgeID]graph.NodeID, len(s.deltas))
	for e, d := range s.deltas {
		edgeFrom[e] = d.from
	}
	s.mu.RUnlock()
	depths := make([]int, len(parentEdge))
	for i := range depths {
		depths[i] = -1
	}
	var chain []int32
	for v := range parentEdge {
		cur := int32(v)
		chain = chain[:0]
		for depths[cur] < 0 {
			e := parentEdge[cur]
			if e == graph.None {
				depths[cur] = 0
				break
			}
			chain = append(chain, cur)
			from, ok := edgeFrom[graph.EdgeID(e)]
			if !ok || int(from) >= len(parentEdge) {
				// A torn snapshot (edge map raced the slice) — treat the
				// frontier as materialized rather than walk off the map.
				depths[cur] = 0
				chain = chain[:len(chain)-1]
				break
			}
			cur = from
		}
		d := depths[cur]
		for i := len(chain) - 1; i >= 0; i-- {
			d++
			depths[chain[i]] = d
		}
	}
	return depths
}

// AddMaterialized extends the installed plan with version v stored in
// full — between re-plans, a root commit, or a child commit whose read
// through its parent would cost more than its own bytes. v must be the
// next dense id. lines, when non-nil, also seeds the checkout cache.
//
// Its objects go to the backend one Put at a time, as AddVersion's delta
// does, not as a published batch: on disk they wait in the staged tier.
// A caller that needs the version to outlive the process keeps its own
// durable copy, as versioning's journal does (a root's lines, a child's
// delta from a parent it can rebuild).
func (s *Store) AddMaterialized(v graph.NodeID, lines []string) error {
	if err := s.nextID(v, "AddMaterialized"); err != nil {
		return err
	}
	// Object writes happen before publication and outside the lock; a
	// failure leaves at most content-addressed objects a later sweep
	// collects, never a published version.
	keys, err := putBlobObject(lines, func(payload []byte) (Key, error) {
		k := KeyOf(payload)
		return k, s.backend.Put(k, payload)
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(v) != len(s.parentEdge) {
		return fmt.Errorf("store: AddMaterialized(%d) raced another writer, next id is %d", v, len(s.parentEdge))
	}
	s.parentEdge = append(s.parentEdge, graph.None)
	s.blobs[v] = keys
	for _, k := range keys {
		s.refs[k]++
	}
	if lines != nil {
		s.cache.Put(v, lines, linesSize(lines))
	}
	return nil
}

// AddVersion extends the installed plan with version v reconstructed from
// parent via the new stored edge e carrying edit script d — the
// incremental ingest path between re-plans: v is read as its parent plus
// d until the next full re-plan rebalances the plan (a caller that would
// rather store v whole uses AddMaterialized). v must be the next dense id
// and parent must already be covered. lines, when non-nil, is v's full
// content and seeds the checkout cache.
func (s *Store) AddVersion(v, parent graph.NodeID, e graph.EdgeID, d diff.Delta, lines []string) error {
	// Validate before Put so a rejected call leaves no orphan object.
	s.mu.RLock()
	err := s.validateAdd(v, parent, e)
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	payload := EncodeDelta(d)
	k := KeyOf(payload)
	if err := s.backend.Put(k, payload); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.validateAdd(v, parent, e); err != nil {
		return fmt.Errorf("store: AddVersion raced another writer: %w", err)
	}
	s.parentEdge = append(s.parentEdge, int32(e))
	s.deltas[e] = storedDelta{key: k, from: parent, to: v}
	s.refs[k]++
	if lines != nil {
		s.cache.Put(v, lines, linesSize(lines))
	}
	return nil
}

// nextID checks v is the next dense version id under the read lock.
func (s *Store) nextID(v graph.NodeID, op string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(v) != len(s.parentEdge) {
		return fmt.Errorf("store: %s(%d) out of order, next id is %d", op, v, len(s.parentEdge))
	}
	return nil
}

// validateAdd checks the AddVersion preconditions; s.mu must be held.
func (s *Store) validateAdd(v, parent graph.NodeID, e graph.EdgeID) error {
	if int(v) != len(s.parentEdge) {
		return fmt.Errorf("store: AddVersion(%d) out of order, next id is %d", v, len(s.parentEdge))
	}
	if int(parent) >= len(s.parentEdge) {
		return fmt.Errorf("store: AddVersion(%d) from unknown parent %d", v, parent)
	}
	if _, dup := s.deltas[e]; dup {
		return fmt.Errorf("store: delta %d already stored", e)
	}
	return nil
}

// SweepOrphans deletes every backend object the installed plan does not
// reference — objects stranded by a crash between a migration's swap and
// its GC sweep, or by a failed incremental add. Callers must serialize it
// with Install/Add* (versioning.Open runs it before serving).
func (s *Store) SweepOrphans() (removed int, err error) {
	err = s.backend.Keys(func(k Key) error {
		s.mu.RLock()
		referenced := s.refs[k] > 0
		s.mu.RUnlock()
		if referenced {
			return nil
		}
		if err := s.backend.Delete(k); err != nil {
			return err
		}
		removed++
		return nil
	})
	return removed, err
}

// Close flushes and closes the backend if it supports either operation.
func (s *Store) Close() error {
	var err error
	if f, ok := s.backend.(Flusher); ok {
		err = f.Flush()
	}
	if c, ok := s.backend.(Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
