package client

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// retryable classifies one attempt's outcome.
type attemptError struct {
	err       error         // terminal or retryable error
	retryable bool          // try again (budget permitting)
	minDelay  time.Duration // server-provided Retry-After floor, if any
}

// call carries one logical request through the retry loop.
type call struct {
	method, path string
	in           any  // JSON body (nil for none)
	out          any  // 2xx response target (nil to discard)
	idempotent   bool // safe to resend after transport/torn-body errors
}

// doJSON performs method path with in as JSON body (nil for none),
// decoding a 2xx response into out (nil to discard). idempotent marks
// requests that are safe to resend after a transport error or a torn
// response; non-idempotent requests (Commit) are only retried when an
// HTTP error status proves the server did not apply them.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	cl := &call{method: method, path: path, in: in, out: out, idempotent: idempotent}
	body, err := marshalBody(cl.in)
	if err != nil {
		return fmt.Errorf("dsvd: encoding %s %s: %w", cl.method, cl.path, err)
	}
	// The trace header is chosen once so every retry of one logical
	// request lands in the same trace.
	th := c.traceHeader(ctx)
	var lastErr error
	for attempt := 0; ; attempt++ {
		ae := c.attempt(ctx, cl, th, body)
		if ae.err == nil {
			return nil
		}
		lastErr = ae.err
		if !ae.retryable || attempt >= c.opt.MaxRetries {
			return lastErr
		}
		if err := c.sleep(ctx, c.backoff(attempt, ae.minDelay)); err != nil {
			return lastErr
		}
	}
}

// traceHeader picks the outgoing X-DSV-Trace value for one logical
// request: a span already in ctx always joins its trace (distributed
// tracing), otherwise Options.TraceSample decides whether to mint a
// fresh trace ID that forces the server to record this request.
func (c *Client) traceHeader(ctx context.Context) string {
	if s := trace.FromContext(ctx); s != nil {
		return s.Header()
	}
	if c.opt.TraceSample > 0 && rand.Float64() < c.opt.TraceSample {
		return trace.NewTraceID()
	}
	return ""
}

// attempt runs one HTTP round trip under its own timeout.
func (c *Client) attempt(ctx context.Context, cl *call, traceHeader string, body []byte) attemptError {
	actx, cancel := context.WithTimeout(ctx, c.opt.RequestTimeout)
	defer cancel()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	var req *http.Request
	var err error
	if rd != nil {
		req, err = http.NewRequestWithContext(actx, cl.method, c.base+cl.path, rd)
	} else {
		req, err = http.NewRequestWithContext(actx, cl.method, c.base+cl.path, nil)
	}
	if err != nil {
		return attemptError{err: fmt.Errorf("dsvd: building %s %s: %w", cl.method, cl.path, err)}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceHeader != "" {
		req.Header.Set(trace.HeaderTrace, traceHeader)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport error: the caller's context expiring is terminal; a
		// per-attempt timeout or connection failure retries only when
		// resending cannot double-apply the request.
		if ctx.Err() != nil {
			return attemptError{err: fmt.Errorf("dsvd: %s %s: %w", cl.method, cl.path, ctx.Err())}
		}
		return attemptError{
			err:       fmt.Errorf("dsvd: %s %s: %w", cl.method, cl.path, err),
			retryable: cl.idempotent,
		}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 && c.opt.OnTrace != nil {
		if id := resp.Header.Get(trace.HeaderTraceID); id != "" {
			c.opt.OnTrace(cl.path, id)
		}
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{Status: resp.StatusCode, Message: readErrorBody(resp)}
		// A received error status means the request was not applied, so
		// even commits retry on overload (429) and server errors (5xx).
		retry := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
		return attemptError{err: apiErr, retryable: retry, minDelay: retryAfterHint(resp)}
	}
	// The whole body into one string sized by its Content-Length (exact
	// on the big responses), whose lines a checkout keeps without a copy;
	// reading to the end also leaves the keep-alive connection reusable.
	answer, err := wire.ReadBody(resp.Body, resp.ContentLength)
	if err == nil && cl.out != nil {
		err = wire.Decode(answer, cl.out)
	}
	if err != nil {
		// Torn or malformed response body on a success status: the
		// request applied but the answer was lost in transit. Reads
		// can simply be reissued.
		return attemptError{
			err:       fmt.Errorf("dsvd: decoding %s %s response: %w", cl.method, cl.path, err),
			retryable: cl.idempotent,
		}
	}
	c.observeResponse(cl.path, int64(len(answer)))
	return attemptError{}
}

// retryAfterHint parses a whole-seconds Retry-After header (0 if absent).
func retryAfterHint(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// backoff computes the pause before retry attempt+1: exponential with
// jitter of up to one base delay, capped, and floored by the server's
// Retry-After hint. The top-level rand functions are concurrency-safe.
func (c *Client) backoff(attempt int, minDelay time.Duration) time.Duration {
	d := c.opt.RetryBaseDelay << uint(attempt)
	if d > c.opt.RetryMaxDelay || d <= 0 {
		d = c.opt.RetryMaxDelay
	}
	d += time.Duration(rand.Int63n(int64(c.opt.RetryBaseDelay) + 1))
	if d < minDelay {
		d = minDelay
	}
	return d
}

// sleep waits d or until ctx is done.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
