package tenant

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/versioning"
)

// DefaultMaxOpen is the open-repository LRU bound when Options.MaxOpen
// is zero.
const DefaultMaxOpen = 64

// Options configures a Manager. The zero value serves in-memory tenants
// with no quotas, all kept open.
type Options struct {
	// RootDir is the fleet's durable root: tenant name → RootDir/name
	// (packs/ plus commit journal, exactly the single-repo layout). Empty
	// serves every tenant from memory, and then no tenant is ever evicted:
	// there is no journal it could reopen from.
	RootDir string
	// MaxOpen bounds concurrently open repositories when RootDir is set
	// (0 = DefaultMaxOpen; negative disables eviction). Tenants in active
	// use are never closed, so a burst wider than MaxOpen temporarily
	// exceeds the bound instead of failing requests. Without a RootDir it
	// is ignored.
	MaxOpen int
	// Repo is the per-tenant RepositoryOptions template. Backend and
	// DataDir are overridden per tenant; everything else (problem,
	// re-plan cadence, cache size, engine options, ...) applies to every
	// tenant.
	Repo versioning.RepositoryOptions
	// Quota applies to every tenant (per-tenant accounting, shared
	// limits). Zero fields are unlimited.
	Quota Quota
	// Tracer, when non-nil, records tenant lifecycle spans: opens attach
	// to the acquiring request's trace, and evictions start their own
	// sampled "tenant.evict" traces covering the flush-and-close I/O.
	Tracer *trace.Tracer
}

// entry lifecycle states. Transitions: opening → open → closing →
// deleted (then a fresh entry may open again). Waiters blocked on
// cond observe every transition via Broadcast.
const (
	stateOpening = iota
	stateOpen
	stateClosing
)

// entry is one open (or transitioning) tenant repository.
type entry struct {
	name    string
	state   int
	repo    *versioning.Repository
	refs    int   // outstanding Handles; eviction waits for zero
	lastUse int64 // manager LRU clock tick
}

// tenantStats survives eviction: quota state and fleet accounting must
// not reset just because a tenant's repository was closed to make room.
type tenantStats struct {
	opened     bool // has been opened at least once (reopen accounting)
	commits    int64
	quotaDenes int64
	bucket     bucket
	rate       rateEWMA
	closeErr   string // last flush/close failure ("" = clean)
	// Snapshot of the repo's size at last eviction (live tenants are
	// measured directly).
	objects      int
	logicalBytes int64
	storedBytes  int64
	versions     int
}

// Manager owns a fleet of tenant repositories behind one daemon. All
// methods are safe for concurrent use.
type Manager struct {
	opt       Options
	start     time.Time
	now       func() time.Time                   // injected clock (tests)
	closeRepo func(*versioning.Repository) error // injected flush (tests)

	mu      sync.Mutex
	cond    *sync.Cond
	entries map[string]*entry
	stats   map[string]*tenantStats
	tick    int64
	closed  bool

	opens       int64
	reopens     int64
	evictions   int64
	closeErrors int64
}

// NewManager returns a Manager serving tenants under opt.
func NewManager(opt Options) *Manager {
	switch {
	case opt.RootDir == "":
		opt.MaxOpen = -1 // evicting an in-memory tenant would discard it
	case opt.MaxOpen == 0:
		opt.MaxOpen = DefaultMaxOpen
	}
	m := &Manager{
		opt:       opt,
		start:     time.Now(),
		now:       time.Now,
		closeRepo: (*versioning.Repository).Close,
		entries:   make(map[string]*entry),
		stats:     make(map[string]*tenantStats),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Handle is a leased reference to one tenant's open repository. The
// repository cannot be evicted while the Handle is live; call Release
// exactly once when done with it.
type Handle struct {
	m *Manager
	e *entry
}

// Name reports the tenant namespace.
func (h *Handle) Name() string { return h.e.name }

// Repo is the tenant's open repository.
func (h *Handle) Repo() *versioning.Repository { return h.e.repo }

// Release returns the lease. The Handle must not be used afterwards.
func (h *Handle) Release() {
	m := h.m
	m.mu.Lock()
	h.e.refs--
	if h.e.refs == 0 {
		m.cond.Broadcast() // Close may be waiting for the fleet to idle
	}
	m.evictLocked()
	m.mu.Unlock()
}

// Acquire leases tenant name's repository, opening it on first touch
// (and transparently reopening it after an eviction). Concurrent
// Acquires of the same tenant share one open. The returned Handle pins
// the repository open until Release. A canceled ctx returns promptly
// even while another goroutine's slow open or eviction flush is in
// flight, so callers' admission slots are never pinned by a stuck
// tenant.
func (m *Manager) Acquire(ctx context.Context, name string) (*Handle, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	// Waiters park in cond.Wait below; a cancellation must wake them so
	// they can observe ctx.Err instead of sleeping out a slow transition.
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if m.closed {
			return nil, ErrClosed
		}
		e, ok := m.entries[name]
		if !ok {
			return m.openLocked(ctx, name)
		}
		switch e.state {
		case stateOpen:
			e.refs++
			m.tick++
			e.lastUse = m.tick
			return &Handle{m: m, e: e}, nil
		default:
			// Opening by another goroutine, or closing (eviction mid-flush):
			// wait for the transition and re-evaluate. A closing entry is
			// deleted when its flush completes, so the retry reopens fresh —
			// never against a half-closed journal.
			m.cond.Wait()
		}
	}
}

// openLocked opens tenant name, releasing m.mu across the repository
// open (journal replay is I/O) and re-acquiring it to publish. The
// placeholder entry in stateOpening makes concurrent Acquires wait
// instead of double-opening the same data directory.
func (m *Manager) openLocked(ctx context.Context, name string) (*Handle, error) {
	e := &entry{name: name, state: stateOpening}
	m.entries[name] = e
	ts := m.statsFor(name)
	reopen := ts.opened
	m.mu.Unlock()
	_, sp := trace.StartSpan(ctx, "tenant.open")
	sp.SetAttr("tenant", name)
	if reopen {
		sp.SetAttr("reopen", "true")
	}
	repo, err := m.openRepo(name)
	sp.End()
	m.mu.Lock()
	if err != nil {
		delete(m.entries, name)
		m.cond.Broadcast()
		return nil, err
	}
	e.repo = repo
	e.state = stateOpen
	e.refs = 1
	m.tick++
	e.lastUse = m.tick
	m.opens++
	if reopen {
		m.reopens++
	}
	ts.opened = true
	m.cond.Broadcast()
	m.evictLocked()
	return &Handle{m: m, e: e}, nil
}

// openRepo builds one tenant's repository from the template (no locks
// held).
func (m *Manager) openRepo(name string) (*versioning.Repository, error) {
	ropt := m.opt.Repo
	ropt.Backend = nil // each tenant gets its own backend
	if m.opt.RootDir != "" {
		ropt.DataDir = filepath.Join(m.opt.RootDir, name)
	} else {
		ropt.DataDir = ""
	}
	repo, err := versioning.Open(name, ropt)
	if err != nil {
		return nil, fmt.Errorf("tenant: opening %s: %w", name, err)
	}
	return repo, nil
}

// statsFor returns (creating if needed) name's persistent stats;
// m.mu is held.
func (m *Manager) statsFor(name string) *tenantStats {
	ts := m.stats[name]
	if ts == nil {
		ts = &tenantStats{}
		m.stats[name] = ts
	}
	return ts
}

// evictLocked closes least-recently-used idle repositories until the
// open count fits MaxOpen. m.mu is held; it is released across each
// repository flush (Close is journal + backend I/O) and re-acquired.
// Busy tenants (refs > 0) are skipped — the bound is exceeded rather
// than failing live requests — and retried on the next Release.
// Entries already closing do not count against the bound: they stay in
// the map until their flush ends, and a Release or open running
// meanwhile would otherwise evict a second tenant to make the same room.
func (m *Manager) evictLocked() {
	if m.opt.MaxOpen < 0 {
		return
	}
	for len(m.entries) > m.opt.MaxOpen {
		victim, open := m.lruIdleLocked()
		if victim == nil || open <= m.opt.MaxOpen {
			return // everything open is in use or opening, or only closing entries are over
		}
		victim.state = stateClosing
		m.mu.Unlock()
		// A failed flush is recorded per tenant and in CloseErrors by
		// closeEntry; eviction itself proceeds (the entry is unusable
		// either way) and operators see the failure on /fleetz.
		_ = m.closeEntry(victim)
		m.mu.Lock()
		delete(m.entries, victim.name)
		m.evictions++
		m.cond.Broadcast()
	}
}

// lruIdleLocked picks the least-recently-used open entry with no
// outstanding Handles (nil if none), and counts the entries that are
// open or opening.
func (m *Manager) lruIdleLocked() (victim *entry, open int) {
	for _, e := range m.entries {
		if e.state != stateClosing {
			open++
		}
		if e.state != stateOpen || e.refs != 0 {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	return victim, open
}

// closeEntry snapshots the repository's size into the persistent stats,
// then flushes and closes it. A flush failure is recorded per tenant
// (surfaced by Fleet as CloseError and counted in
// FleetStats.CloseErrors) and returned to the caller. No manager locks
// are held.
func (m *Manager) closeEntry(e *entry) error {
	_, sp := m.opt.Tracer.StartRequest(context.Background(), "tenant.evict", "")
	sp.SetAttr("tenant", e.name)
	st := e.repo.Stats()
	cerr := m.closeRepo(e.repo)
	if cerr != nil {
		sp.SetAttr("error", cerr.Error())
	}
	sp.End()
	m.mu.Lock()
	ts := m.statsFor(e.name)
	ts.objects = st.Objects
	ts.logicalBytes = int64(st.FullStorage)
	ts.storedBytes = st.StoredBytes
	ts.versions = st.Versions
	if cerr != nil {
		ts.closeErr = cerr.Error()
		m.closeErrors++
	} else {
		ts.closeErr = ""
	}
	m.mu.Unlock()
	if cerr != nil {
		return fmt.Errorf("tenant: closing %s: %w", e.name, cerr)
	}
	return nil
}

// CheckCommit enforces name's commit quotas against repo (the tenant's
// open repository): the capacity caps are measured live first, then a
// rate-bucket token is consumed — in that order so a capacity-denied
// commit never burns rate tokens the client will want for its retries
// once capacity frees up. A nil return means the commit may proceed and
// has been counted toward the tenant's rate; otherwise the returned
// error is a *QuotaError carrying the Retry-After hint.
func (m *Manager) CheckCommit(name string, repo *versioning.Repository) error {
	q := m.opt.Quota
	now := m.now()
	if q.MaxObjects > 0 || q.MaxLogicalBytes > 0 {
		st := repo.Stats()
		var reason string
		switch {
		case q.MaxObjects > 0 && st.Objects >= q.MaxObjects:
			reason = fmt.Sprintf("object count %d at limit %d", st.Objects, q.MaxObjects)
		case q.MaxLogicalBytes > 0 && int64(st.FullStorage) >= q.MaxLogicalBytes:
			reason = fmt.Sprintf("logical bytes %d at limit %d", int64(st.FullStorage), q.MaxLogicalBytes)
		}
		if reason != "" {
			m.mu.Lock()
			m.statsFor(name).quotaDenes++
			m.mu.Unlock()
			return &QuotaError{Tenant: name, Reason: reason, RetryAfter: capRetryAfter}
		}
	}
	if q.CommitsPerSec > 0 {
		burst := q.CommitBurst
		if burst <= 0 {
			burst = int(q.CommitsPerSec)
			if burst < 1 {
				burst = 1
			}
		}
		m.mu.Lock()
		ts := m.statsFor(name)
		ok, wait := ts.bucket.take(now, q.CommitsPerSec, burst)
		if !ok {
			ts.quotaDenes++
			m.mu.Unlock()
			return &QuotaError{Tenant: name, Reason: "commit rate", RetryAfter: wait}
		}
		m.mu.Unlock()
	}
	m.mu.Lock()
	ts := m.statsFor(name)
	ts.commits++
	ts.rate.observe(now)
	m.mu.Unlock()
	return nil
}

// OpenCount reports how many tenant repositories are currently open
// (including ones mid-open or mid-close).
func (m *Manager) OpenCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Close flushes and closes every open tenant repository and rejects
// further Acquires, returning the joined flush errors (nil only when
// every tenant closed clean). It waits for outstanding Handles to be
// released (the serving layer drains requests first); bound it with a
// deadline goroutine if the caller cannot guarantee that.
func (m *Manager) Close() error {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	var errs []error
	for {
		var victim *entry
		busy := false
		for _, e := range m.entries {
			if e.state == stateOpen && e.refs == 0 {
				victim = e
				break
			}
			busy = true
		}
		if victim == nil {
			if !busy {
				m.mu.Unlock()
				return errors.Join(errs...)
			}
			m.cond.Wait() // a Handle release or open/close transition
			continue
		}
		victim.state = stateClosing
		m.mu.Unlock()
		if err := m.closeEntry(victim); err != nil {
			errs = append(errs, err)
		}
		m.mu.Lock()
		delete(m.entries, victim.name)
		m.cond.Broadcast()
	}
}

// TenantInfo is one tenant's row in FleetStats: live measurements for
// open tenants, the last-eviction snapshot for closed ones. Commits
// and CommitRate count quota-admitted commit attempts (measured at
// admission, before the commit itself runs), so a tenant hammering
// failing commits still shows up as hot.
type TenantInfo struct {
	Name         string  `json:"name"`
	Open         bool    `json:"open"`
	Versions     int     `json:"versions"`
	Objects      int     `json:"objects"`
	LogicalBytes int64   `json:"logical_bytes"`
	StoredBytes  int64   `json:"stored_bytes"`
	Commits      int64   `json:"commits"`
	CommitRate   float64 `json:"commit_rate"` // EWMA commits/s
	QuotaDenials int64   `json:"quota_denials,omitempty"`
	// CloseError is the tenant's last flush/close failure (empty when
	// the last close was clean) — the operator's signal that an evicted
	// tenant's durable state may be behind its acknowledged history.
	CloseError string `json:"close_error,omitempty"`
}

// FleetStats is the aggregate /fleetz view of a multi-tenant daemon.
type FleetStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Tenants       int     `json:"tenants"` // namespaces touched since boot
	Open          int     `json:"open"`
	MaxOpen       int     `json:"max_open"`
	Opens         int64   `json:"opens"`
	Reopens       int64   `json:"reopens"`
	Evictions     int64   `json:"evictions"`
	QuotaDenials  int64   `json:"quota_denials"`
	// CloseErrors counts repository flushes that failed during eviction
	// or shutdown; nonzero means durable state may trail acknowledged
	// commits (see the per-tenant CloseError fields).
	CloseErrors int64 `json:"close_errors,omitempty"`

	// Top-k tenants by live size and activity.
	TopByObjects    []TenantInfo `json:"top_by_objects,omitempty"`
	TopByBytes      []TenantInfo `json:"top_by_bytes,omitempty"`
	TopByCommitRate []TenantInfo `json:"top_by_commit_rate,omitempty"`
}

// Fleet snapshots the manager: aggregate counters plus the top-k
// tenants by object count, logical bytes, and recent commit rate. Open
// tenants are measured live; evicted tenants report their last-close
// snapshot.
func (m *Manager) Fleet(topK int) FleetStats {
	if topK <= 0 {
		topK = 5
	}
	now := m.now()
	m.mu.Lock()
	fs := FleetStats{
		UptimeSeconds: now.Sub(m.start).Seconds(),
		Tenants:       len(m.stats),
		Open:          len(m.entries),
		MaxOpen:       m.opt.MaxOpen,
		Opens:         m.opens,
		Reopens:       m.reopens,
		Evictions:     m.evictions,
		CloseErrors:   m.closeErrors,
	}
	m.mu.Unlock()
	infos := m.tenantInfos(now)
	for _, info := range infos {
		fs.QuotaDenials += info.QuotaDenials
	}
	fs.TopByObjects = topBy(infos, topK, func(a, b TenantInfo) bool { return a.Objects > b.Objects })
	fs.TopByBytes = topBy(infos, topK, func(a, b TenantInfo) bool { return a.LogicalBytes > b.LogicalBytes })
	fs.TopByCommitRate = topBy(infos, topK, func(a, b TenantInfo) bool { return a.CommitRate > b.CommitRate })
	return fs
}

// Infos snapshots every namespace touched since boot, sorted by name:
// live measurements for open tenants (taken outside the manager lock,
// the same discipline as Fleet), last-eviction snapshots for closed
// ones. It backs the per-tenant gauges on /metricsz.
func (m *Manager) Infos() []TenantInfo {
	return m.tenantInfos(m.now())
}

func (m *Manager) tenantInfos(now time.Time) []TenantInfo {
	m.mu.Lock()
	infos := make([]TenantInfo, 0, len(m.stats))
	type liveRepo struct {
		idx  int
		repo *versioning.Repository
	}
	var live []liveRepo
	for name, ts := range m.stats {
		info := TenantInfo{
			Name:         name,
			Versions:     ts.versions,
			Objects:      ts.objects,
			LogicalBytes: ts.logicalBytes,
			StoredBytes:  ts.storedBytes,
			Commits:      ts.commits,
			CommitRate:   ts.rate.value(now),
			QuotaDenials: ts.quotaDenes,
			CloseError:   ts.closeErr,
		}
		if e, ok := m.entries[name]; ok && e.state == stateOpen {
			info.Open = true
			live = append(live, liveRepo{idx: len(infos), repo: e.repo})
		}
		infos = append(infos, info)
	}
	m.mu.Unlock()
	// Measure open tenants outside the manager lock: Stats takes the
	// repository's read lock, and holding m.mu across many of those
	// would stall every Acquire behind a slow tenant.
	for _, lr := range live {
		st := lr.repo.Stats()
		infos[lr.idx].Versions = st.Versions
		infos[lr.idx].Objects = st.Objects
		infos[lr.idx].LogicalBytes = int64(st.FullStorage)
		infos[lr.idx].StoredBytes = st.StoredBytes
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// OpenStats snapshots the full RepositoryStats of every currently open
// tenant, keyed by name, for the multi-tenant /statsz and /metricsz
// views. Repositories are measured outside the manager lock so a slow
// tenant cannot stall Acquire; a tenant evicted between the two steps
// still reports (Stats serves on closed repositories).
func (m *Manager) OpenStats() map[string]versioning.RepositoryStats {
	m.mu.Lock()
	repos := make(map[string]*versioning.Repository, len(m.entries))
	for name, e := range m.entries {
		if e.state == stateOpen {
			repos[name] = e.repo
		}
	}
	m.mu.Unlock()
	out := make(map[string]versioning.RepositoryStats, len(repos))
	for name, repo := range repos {
		out[name] = repo.Stats()
	}
	return out
}

// topBy selects the k greatest infos under more (ties broken by name
// for stable output) with one O(N·k) pass over a small insertion
// buffer — k is a handful, N is every namespace ever touched, and this
// runs on each /statsz probe, so no full copy-and-sort of N.
func topBy(infos []TenantInfo, k int, more func(a, b TenantInfo) bool) []TenantInfo {
	before := func(a, b TenantInfo) bool {
		if more(a, b) != more(b, a) {
			return more(a, b)
		}
		return a.Name < b.Name
	}
	top := make([]TenantInfo, 0, k)
	for _, info := range infos {
		i := sort.Search(len(top), func(i int) bool { return before(info, top[i]) })
		if i == len(top) {
			if len(top) < k {
				top = append(top, info)
			}
			continue
		}
		if len(top) < k {
			top = append(top, TenantInfo{})
		}
		copy(top[i+1:], top[i:])
		top[i] = info
	}
	return top
}
