// Package tenant is the multi-tenant repository manager: one dsvd
// process serving thousands of independent version graphs. A Manager
// owns a namespace → versioning.Repository map with lazy Open on first
// touch (per-tenant data dirs under one root), a bounded LRU of open
// repositories with clean eviction (Close flushes the journal and the
// backend; an evicted tenant reopens transparently on its next
// request), per-tenant quotas (object count, logical bytes, and a
// commit-rate token bucket that surfaces as 429 + Retry-After), and
// aggregate fleet statistics for the /fleetz endpoint.
//
// The serving layer (package serve) resolves /t/{tenant}/... routes
// through a Manager; package client's Tenant views speak those routes.
package tenant

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// MaxNameLen bounds tenant names; long enough for UUIDs and
// reverse-DNS namespaces, short enough for any filesystem.
const MaxNameLen = 64

// ErrClosed reports an operation against a closed Manager.
var ErrClosed = errors.New("tenant: manager is closed")

// ErrBadName is wrapped by every ValidateName failure, so callers can
// classify a rejection (HTTP 400) without string matching.
var ErrBadName = errors.New("invalid tenant name")

// ValidateName reports whether name is an acceptable tenant namespace.
// Names are used verbatim as directory names under the tenants root, so
// the rules are deliberately strict: 1..MaxNameLen characters drawn
// from [a-zA-Z0-9._-], not starting with '.' or '-'. That charset
// contains no path separators and the leading-dot ban excludes "." and
// ".." (and dotfiles), so a valid name can never escape or shadow
// anything inside the root. FuzzTenantName holds this invariant.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("tenant: %w: empty name", ErrBadName)
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("tenant: %w: longer than %d bytes", ErrBadName, MaxNameLen)
	}
	if name[0] == '.' || name[0] == '-' {
		return fmt.Errorf("tenant: %w: %q may not start with %q", ErrBadName, name, name[0])
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("tenant: %w: %q contains invalid byte %q (want [a-zA-Z0-9._-])", ErrBadName, name, c)
		}
	}
	return nil
}

// Quota bounds one tenant's resource consumption. Zero fields are
// unlimited. Every violation surfaces as a *QuotaError, which the
// serving layer maps to 429 + Retry-After.
//
// The capacity caps (MaxObjects, MaxLogicalBytes) are soft limits:
// each commit is checked against a live measurement without
// serializing concurrent commits, so a burst of in-flight commits can
// overshoot a cap by up to the concurrency level before further
// commits are refused. Hard enforcement would serialize every tenant
// commit against its store measurement — the wrong trade for a
// serving path.
type Quota struct {
	// MaxObjects caps the content-addressed objects a tenant's backend
	// may hold; commits that would grow a full backend are refused.
	MaxObjects int
	// MaxLogicalBytes caps the sum of full version sizes (the
	// materialize-everything baseline, i.e. what the tenant logically
	// stores regardless of delta compression).
	MaxLogicalBytes int64
	// CommitsPerSec refills the per-tenant commit token bucket.
	CommitsPerSec float64
	// CommitBurst is the bucket capacity (0 = max(1, CommitsPerSec
	// rounded down)).
	CommitBurst int
}

// capRetryAfter is the Retry-After hint for capacity quotas (objects or
// bytes exhausted): unlike the rate bucket there is no refill schedule,
// so the hint just spreads out the client's retries.
const capRetryAfter = 30 * time.Second

// QuotaError reports a request refused by a tenant quota. RetryAfter is
// the earliest time a retry could succeed (rate quotas) or a backoff
// hint (capacity quotas).
type QuotaError struct {
	Tenant     string
	Reason     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %s: quota exceeded: %s (retry after %s)", e.Tenant, e.Reason, e.RetryAfter)
}

// bucket is a token bucket over an injected clock.
type bucket struct {
	tokens float64
	last   time.Time
}

// take refills the bucket to now and consumes one token, or reports how
// long until one is available. rate > 0.
func (b *bucket) take(now time.Time, rate float64, burst int) (ok bool, wait time.Duration) {
	cap := float64(burst)
	if b.last.IsZero() {
		b.tokens = cap
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(cap, b.tokens+dt*rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / rate
	return false, time.Duration(math.Ceil(need*1e3)) * time.Millisecond
}

// ewmaTau is the time constant of the per-tenant commit-rate estimate
// surfaced by /fleetz top-k: recent activity dominates, idle tenants
// decay toward zero within a few minutes.
const ewmaTau = 30.0 // seconds

// rateEWMA is an exponentially weighted commits-per-second estimate.
type rateEWMA struct {
	rate float64
	last time.Time
}

// observe folds one event at now into the estimate.
func (r *rateEWMA) observe(now time.Time) {
	if r.last.IsZero() {
		r.last = now
		r.rate = 1 / ewmaTau
		return
	}
	dt := now.Sub(r.last).Seconds()
	if dt <= 0 {
		// Same-instant burst: each event adds one bucket-width of rate.
		r.rate += 1 / ewmaTau
		return
	}
	a := math.Exp(-dt / ewmaTau)
	r.rate = r.rate*a + (1-a)/dt
	r.last = now
}

// value reports the estimate decayed to now (no event recorded).
func (r *rateEWMA) value(now time.Time) float64 {
	if r.last.IsZero() {
		return 0
	}
	if dt := now.Sub(r.last).Seconds(); dt > 0 {
		return r.rate * math.Exp(-dt/ewmaTau)
	}
	return r.rate
}
