// Package client is the typed Go client for the dsvd HTTP API
// (package serve). It is built for serving-scale callers:
//
//   - Connection pooling: one shared http.Transport with keep-alives,
//     sized for many concurrent requests to one daemon.
//   - Per-request timeouts: every attempt runs under its own deadline
//     derived from the caller's context.
//   - Retry with exponential backoff + jitter (50ms doubling to at most
//     2s) on transport errors, 429 and 5xx responses, never sooner than
//     the server's Retry-After hint. Commits
//     are never retried after a transport error once the request may
//     have reached the server (a commit is not idempotent), but any
//     received error status means the commit did not apply, so those
//     retry safely.
//   - One cancellable GET per checkout: the daemon answers a repeat from
//     its encoded-response cache and deduplicates a stampede in its
//     store, so the client adds no batching of its own; CheckoutBatch is
//     the explicit many-versions request. The client caches nothing:
//     every call returns lines of its own response body.
//   - One codec with the daemon (internal/wire, which also declares the
//     messages): a commit's body is appended once into a buffer sized
//     from its lines, a response is read in one right-sized read, and the
//     lines of one version are substrings of one string (never shared
//     with another version of a batch) when the body is the compact JSON
//     the daemon writes; any other body is decoded by encoding/json.
//
// The full read/write surface mirrors the server: Commit and
// CommitMerge (multi-parent versions), Checkout / CheckoutPath /
// CheckoutBatch, Diff (the keep/delete/insert edit script between any
// two versions), Plan/Replan/Stats, and the observability probes.
//
// A *Client is a view of one repository on the daemon. New returns the
// root view — the repository of a single-repository dsvd, routes at /;
// Tenant(name) returns the view of one namespace of a dsvd -multi
// fleet, the same routes under /t/{name}. Every operation is
// implemented once, against the view's route prefix, and all views of
// one daemon share its connection pool and retry policy.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
	"repro/serve"
	"repro/tenant"
	"repro/versioning"
)

// Options tunes a Client. The zero value gives production defaults.
type Options struct {
	// HTTPClient overrides the pooled default (e.g. for tests or custom
	// TLS). Its Timeout is ignored; per-attempt deadlines come from
	// RequestTimeout.
	HTTPClient *http.Client
	// RequestTimeout bounds each HTTP attempt (0 = 10s).
	RequestTimeout time.Duration
	// MaxRetries bounds retries after the first attempt (0 = 3;
	// negative disables retrying).
	MaxRetries int
	// CoalesceWindow has no effect: every Checkout is its own GET. It
	// stays because benchmark/driver.go sets it (ROADMAP item 7h).
	CoalesceWindow time.Duration
	// TraceSample sends a fresh X-DSV-Trace header on this fraction of
	// requests (0 disables), forcing the server to record their traces
	// regardless of its own sample rate. A request whose context already
	// carries a trace span always sends the header, joining the server's
	// spans to the caller's trace.
	TraceSample float64
	// OnTrace, when set, is called (on the request goroutine) with the
	// request path and the server's X-DSV-Trace-Id for every successful
	// response that carried one, so a caller can look its requests up
	// afterwards (see Tracez).
	OnTrace func(path, traceID string)
	// OnResponse, when set, is called (on the request goroutine) with the
	// request path and the wire size of the response body for every
	// successful attempt.
	OnResponse func(path string, bodyBytes int64)
}

// Client is a view of one repository on a dsvd daemon: the root view
// New returns, or a tenant's (see Tenant). Safe for concurrent use.
type Client struct {
	*conn
	name   string // tenant namespace ("" = root view)
	prefix string // route prefix: "" or "/t/{name}"
}

// conn is what every view of one daemon shares.
type conn struct {
	base      string
	hc        *http.Client
	opt       Options
	retryBase time.Duration // backoff's first step: retryBaseDelay, less in tests
}

// New returns the root view of the daemon at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opt Options) *Client {
	if opt.RequestTimeout <= 0 {
		opt.RequestTimeout = 10 * time.Second
	}
	if opt.MaxRetries == 0 {
		opt.MaxRetries = 3
	}
	if opt.MaxRetries < 0 {
		opt.MaxRetries = 0
	}
	var hc *http.Client
	if opt.HTTPClient != nil {
		// Work on a copy with Timeout cleared: per-attempt deadlines come
		// from RequestTimeout, and a lingering client-wide Timeout would
		// silently cap every attempt below it.
		cp := *opt.HTTPClient
		cp.Timeout = 0
		hc = &cp
	} else {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return &Client{conn: &conn{base: strings.TrimRight(baseURL, "/"), hc: hc, opt: opt, retryBase: retryBaseDelay}}
}

// Tenant returns the view of tenant name on a multi-tenant daemon
// (dsvd -multi); Tenant("") is the root view. A view is a small value:
// build one per use or keep it, every view shares the daemon's
// connection pool.
func (c *Client) Tenant(name string) *Client {
	v := &Client{conn: c.conn, name: name}
	if name != "" {
		v.prefix = "/t/" + url.PathEscape(name)
	}
	return v
}

// Name reports the tenant namespace this view is scoped to ("" for the
// root view).
func (c *Client) Name() string { return c.name }

// observeResponse feeds the OnResponse hook, if installed.
func (c *Client) observeResponse(path string, bodyBytes int64) {
	if c.opt.OnResponse != nil {
		c.opt.OnResponse(path, bodyBytes)
	}
}

// Close releases idle pooled connections. No view of the daemon may be
// used afterwards.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// APIError is a non-2xx response from the daemon.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("dsvd: HTTP %d: %s", e.Status, e.Message)
}

// CommitResult reports an acknowledged commit.
type CommitResult = wire.CommitResult

// Commit appends a version deriving from parent (versioning.NoParent
// for a root) with the given full content. On a tenant view a quota
// violation surfaces as *APIError with status 429.
func (c *Client) Commit(ctx context.Context, parent versioning.NodeID, lines []string) (CommitResult, error) {
	return c.commit(ctx, wire.CommitRequest{Parent: &parent, Lines: lines})
}

// CommitMerge appends a multi-parent merge version: parents[0] is the
// primary parent, each further parent adds a candidate delta edge.
// Real-history importers use this to preserve git merge topology.
func (c *Client) CommitMerge(ctx context.Context, parents []versioning.NodeID, lines []string) (CommitResult, error) {
	return c.commit(ctx, wire.CommitRequest{Parents: parents, Lines: lines})
}

func (c *Client) commit(ctx context.Context, req wire.CommitRequest) (CommitResult, error) {
	var out CommitResult
	err := c.doJSON(ctx, http.MethodPost, c.prefix+"/commit", req, &out, false)
	return out, err
}

// Checkout reconstructs version id's full content.
func (c *Client) Checkout(ctx context.Context, id versioning.NodeID) ([]string, error) {
	return c.CheckoutPath(ctx, id, "")
}

// CheckoutPath reconstructs version id narrowed to one manifest path
// scope (a file or directory prefix; see versioning.FilterManifest; ""
// is the whole version) in one GET.
func (c *Client) CheckoutPath(ctx context.Context, id versioning.NodeID, scope string) ([]string, error) {
	path := fmt.Sprintf("%s/checkout/%d", c.prefix, id)
	if scope != "" {
		path += "?path=" + url.QueryEscape(scope)
	}
	var out wire.Checkout
	if err := c.doJSON(ctx, http.MethodGet, path, nil, &out, true); err != nil {
		return nil, err
	}
	return out.Lines, nil
}

// CheckoutResult is one CheckoutBatch outcome.
type CheckoutResult struct {
	ID    versioning.NodeID
	Lines []string
	Err   error
}

// CheckoutBatch reconstructs many versions in one request; results are
// positional. A failed item carries an *APIError with the status the
// server gave it (older daemons omit it, which maps to a plain 500).
func (c *Client) CheckoutBatch(ctx context.Context, ids []versioning.NodeID) ([]CheckoutResult, error) {
	var raw []wire.Checkout
	if err := c.doJSON(ctx, http.MethodPost, c.prefix+"/checkout", wire.BatchRequest{IDs: ids}, &raw, true); err != nil {
		return nil, err
	}
	if len(raw) != len(ids) {
		return nil, fmt.Errorf("dsvd: batch checkout returned %d results for %d ids", len(raw), len(ids))
	}
	out := make([]CheckoutResult, len(raw))
	for i, item := range raw {
		out[i] = CheckoutResult{ID: item.ID, Lines: item.Lines}
		if item.Error != "" {
			status := item.Status
			if status == 0 {
				status = http.StatusInternalServerError
			}
			out[i].Err = &APIError{Status: status, Message: item.Error}
		}
	}
	return out, nil
}

// DiffOp is one edit-script command from GET /diff/{a}/{b}: keep and
// delete carry a source line count, insert carries the inserted lines.
type DiffOp = wire.DiffOp

// DiffResult is the edit script transforming version A's lines into
// version B's, with summary sizes (keeps excluded).
type DiffResult = wire.DiffResult

// Diff fetches the edit script between two versions. Between two
// manifests it is a tree diff (versioning.DiffManifest), minimal within
// each file but not over the whole version. The server caches encoded
// diffs with a strong ETag, so hot pairs are cheap.
func (c *Client) Diff(ctx context.Context, a, b versioning.NodeID) (DiffResult, error) {
	var out DiffResult
	err := c.doJSON(ctx, http.MethodGet, fmt.Sprintf("%s/diff/%d/%d", c.prefix, a, b), nil, &out, true)
	return out, err
}

// Plan fetches the currently installed plan summary.
func (c *Client) Plan(ctx context.Context) (versioning.PlanSummary, error) {
	var out versioning.PlanSummary
	err := c.doJSON(ctx, http.MethodGet, c.prefix+"/plan", nil, &out, true)
	return out, err
}

// Planz fetches the plan observatory snapshot: maintenance-pass
// history with per-solver race reports and the current plan's
// explanation. topK has no effect; it stays because benchmark/driver.go's
// repoAPI names this signature (ROADMAP item 7h).
func (c *Client) Planz(ctx context.Context, topK int) (serve.Planz, error) {
	var out serve.Planz
	err := c.doJSON(ctx, http.MethodGet, c.prefix+"/planz", nil, &out, true)
	return out, err
}

// Log fetches version id's first-parent ancestry walk. limit bounds
// the walk; 0 walks all the way to a root. An unknown version surfaces
// as *APIError with status 404.
func (c *Client) Log(ctx context.Context, id versioning.NodeID, limit int) (serve.LogResponse, error) {
	path := fmt.Sprintf("%s/log/%d", c.prefix, id)
	if limit > 0 {
		path = fmt.Sprintf("%s?limit=%d", path, limit)
	}
	var out serve.LogResponse
	err := c.doJSON(ctx, http.MethodGet, path, nil, &out, true)
	return out, err
}

// Replan forces a portfolio re-solve and store migration now.
func (c *Client) Replan(ctx context.Context) (versioning.PlanSummary, error) {
	var out versioning.PlanSummary
	err := c.doJSON(ctx, http.MethodPost, c.prefix+"/replan", struct{}{}, &out, true)
	return out, err
}

// Stats fetches the repository's serving statistics (on a tenant view,
// lazily opening the tenant on the daemon if it is not already open).
func (c *Client) Stats(ctx context.Context) (versioning.RepositoryStats, error) {
	var out versioning.RepositoryStats
	err := c.doJSON(ctx, http.MethodGet, c.prefix+"/stats", nil, &out, true)
	return out, err
}

// Statsz fetches the server's per-endpoint traffic counters. Like the
// other probes below it is daemon-wide: every view reaches the same one.
func (c *Client) Statsz(ctx context.Context) (serve.Statsz, error) {
	var out serve.Statsz
	err := c.doJSON(ctx, http.MethodGet, "/statsz", nil, &out, true)
	return out, err
}

// Tracez fetches the daemon's flight recorder snapshot: recent traces
// plus retained per-endpoint outliers. Pair with Options.TraceSample or
// OnTrace to look up specific requests by trace ID.
func (c *Client) Tracez(ctx context.Context) (trace.Snapshot, error) {
	var out trace.Snapshot
	err := c.doJSON(ctx, http.MethodGet, "/tracez", nil, &out, true)
	return out, err
}

// Fleetz fetches the daemon's aggregate fleet statistics (multi-tenant
// daemons only). topK bounds the per-dimension tenant lists; 0 uses the
// server default.
func (c *Client) Fleetz(ctx context.Context, topK int) (tenant.FleetStats, error) {
	path := "/fleetz"
	if topK > 0 {
		path = fmt.Sprintf("/fleetz?topk=%d", topK)
	}
	var out tenant.FleetStats
	err := c.doJSON(ctx, http.MethodGet, path, nil, &out, true)
	return out, err
}

// Healthz probes daemon liveness, returning the served version count.
func (c *Client) Healthz(ctx context.Context) (int, error) {
	var out struct {
		Versions int `json:"versions"`
	}
	err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, &out, true)
	return out.Versions, err
}

// readErrorBody extracts the server's error message from a non-2xx
// response body (falling back to the raw body or status text).
func readErrorBody(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	if msg := strings.TrimSpace(string(body)); msg != "" {
		return msg
	}
	return http.StatusText(resp.StatusCode)
}

// marshalBody renders in once for every attempt of its request, as
// json.Marshal does: a commit's lines through wire.Encode's sized
// append, a small body through encoding/json behind it.
func marshalBody(in any) ([]byte, error) {
	if in == nil {
		return nil, nil
	}
	return wire.Encode(in)
}
