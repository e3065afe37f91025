// Package client is a small typed client for the routing service
// (cmd/routed): it speaks the api package's wire format and retries
// transient refusals — 429 load sheds and 503 drains — with exponential
// backoff, honoring both the server's Retry-After hint and the caller's
// context. Routing requests are pure computations, so retrying them is
// always safe.
//
// The service content-addresses results: every route response carries an
// ETag derived from the canonical problem. RouteConditional revalidates a
// held response with If-None-Match, and CacheInfo reports whether the
// server answered from its result cache (X-Cache) on each exchange.
//
// Every call participates in distributed tracing: the client propagates a
// W3C traceparent header (adopting a trace already riding ctx — see
// WithTraceContext — or minting one per call) plus an X-Request-Id, both
// held constant across retry attempts so the server's logs show one
// request retrying rather than three unrelated ones. CacheInfo.RequestID
// echoes the id the server answered under, the handle for /debug/slow and
// trace-stream lookups.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"clockroute/api"
	"clockroute/internal/telemetry"
)

// WithTraceContext returns ctx carrying a parsed W3C traceparent value:
// subsequent client calls under ctx join that trace (each call still
// propagates as its own child span) instead of minting fresh ones. An
// unparsable header is ignored and ctx returned unchanged — a caller with
// garbage trace state gets fresh traces, not failed routes.
func WithTraceContext(ctx context.Context, traceparent string) context.Context {
	tc, err := telemetry.ParseTraceParent(traceparent)
	if err != nil {
		return ctx
	}
	return telemetry.ContextWithTrace(ctx, tc)
}

// WithRequestID returns ctx carrying an explicit X-Request-Id for
// subsequent client calls (defaults to the trace id when unset).
func WithRequestID(ctx context.Context, id string) context.Context {
	return telemetry.ContextWithRequestID(ctx, id)
}

// APIError is a non-2xx response from the service, carrying the decoded
// error body.
type APIError struct {
	StatusCode int
	Message    string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("clockroute service: %d: %s", e.StatusCode, e.Message)
}

// Temporary reports whether retrying later may succeed (load shed or
// drain).
func (e *APIError) Temporary() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode == http.StatusServiceUnavailable
}

// Option tunes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxAttempts caps total attempts per call, first try included
// (default 4; values < 1 mean 1).
func WithMaxAttempts(n int) Option { return func(c *Client) { c.maxAttempts = n } }

// WithBackoff sets the base retry delay; attempt k waits roughly base<<k,
// capped at 30s and jittered, unless the server's Retry-After asks for
// more (default 100ms).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithJitterSeed makes the backoff jitter deterministic, for tests that
// assert exact retry schedules. Production clients should leave it unset:
// unseeded clients draw from a shared random source, which is the point
// of jitter — many clients shed by the same 429 spread their retries out
// instead of stampeding back in lockstep.
func WithJitterSeed(seed int64) Option {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// Client calls one routing service instance. It is safe for concurrent
// use.
type Client struct {
	baseURL     string
	hc          *http.Client
	maxAttempts int
	backoff     time.Duration

	rngMu sync.Mutex
	rng   *rand.Rand // nil: use the global source
}

// New builds a client for the service at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL:     strings.TrimRight(baseURL, "/"),
		hc:          &http.Client{Timeout: 5 * time.Minute},
		maxAttempts: 4,
		backoff:     100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	if c.maxAttempts < 1 {
		c.maxAttempts = 1
	}
	return c
}

// CacheInfo reports the server's cache disposition for one exchange.
// ETag is the response's entity tag — the quoted canonical problem hash —
// usable as the etag argument of a later RouteConditional call.
type CacheInfo struct {
	Hit         bool   // server answered from its result cache (X-Cache: hit)
	NotModified bool   // 304: the held response is still current; no body was resent
	ETag        string // entity tag of the response (quoted problem hash)
	// RequestID is the X-Request-Id the server answered under — the key
	// for finding this exchange in the service's trace stream and
	// /debug/slow.
	RequestID string
}

// Route routes one net via POST /v1/route.
func (c *Client) Route(ctx context.Context, req *api.RouteRequest) (*api.RouteResponse, error) {
	var out api.RouteResponse
	if _, err := post(ctx, c, "/v1/route", req, &out, ""); err != nil {
		return nil, err
	}
	return &out, nil
}

// RouteConditional routes one net via POST /v1/route, revalidating a held
// response: when etag (from a previous response's CacheInfo.ETag) is
// non-empty it is sent as If-None-Match, and a 304 returns a nil response
// with info.NotModified set — the caller's held copy is still current.
// Routing is deterministic in the problem, so a matching tag always
// revalidates. info is non-nil whenever err is nil.
func (c *Client) RouteConditional(ctx context.Context, req *api.RouteRequest, etag string) (*api.RouteResponse, *CacheInfo, error) {
	var out api.RouteResponse
	info, err := post(ctx, c, "/v1/route", req, &out, etag)
	if err != nil {
		return nil, nil, err
	}
	if info.NotModified {
		return nil, info, nil
	}
	return &out, info, nil
}

// Plan routes a batch via POST /v1/plan.
func (c *Client) Plan(ctx context.Context, req *api.PlanRequest) (*api.PlanResponse, error) {
	var out api.PlanResponse
	if _, err := post(ctx, c, "/v1/plan", req, &out, ""); err != nil {
		return nil, err
	}
	return &out, nil
}

// post runs one retrying request cycle of c against path. A non-empty
// etag is sent as If-None-Match. info is non-nil on success.
func post[In, Out api.Wire](ctx context.Context, c *Client, path string, in *In, out *Out, etag string) (*CacheInfo, error) {
	body, err := api.AppendJSON(nil, in)
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	var info *CacheInfo
	err = c.retry(ctx, func(tc telemetry.TraceContext, rid string) (committed bool, err error) {
		info, err = once(ctx, c, path, body, out, etag, tc, rid)
		return false, err
	})
	if err != nil {
		return nil, err
	}
	return info, nil
}

// retry runs one call of c as attempts of exchange until one succeeds.
// Every attempt carries the call's one trace identity: a trace riding ctx
// is joined as a child span, otherwise a fresh trace is minted, and the
// request id follows the same rule. Between attempts it backs off (see
// delay). It stops early on a permanent status (400/422/500/504 don't
// improve on retry), a done context, or an attempt whose exchange the
// server had committed to: a committed stream is never replayed.
func (c *Client) retry(ctx context.Context, exchange func(tc telemetry.TraceContext, rid string) (committed bool, err error)) error {
	tc, ok := telemetry.TraceFromContext(ctx)
	if ok {
		tc = tc.Child()
	} else {
		tc = telemetry.NewTraceContext()
	}
	rid := telemetry.RequestIDFromContext(ctx)
	if rid == "" {
		rid = tc.TraceHex()
	}
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, c.delay(attempt, lastErr)); err != nil {
				return err
			}
		}
		committed, err := exchange(tc, rid)
		if err == nil || committed {
			return err
		}
		lastErr = err
		var apiErr *APIError
		if (errors.As(err, &apiErr) && !apiErr.Temporary()) || ctx.Err() != nil {
			return err
		}
	}
	return fmt.Errorf("client: giving up after %d attempts: %w", c.maxAttempts, lastErr)
}

// once performs a single HTTP exchange of c.
func once[Out api.Wire](ctx context.Context, c *Client, path string, body []byte, out *Out, etag string, tc telemetry.TraceContext, rid string) (*CacheInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("client: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", tc.TraceParent())
	req.Header.Set("X-Request-Id", rid)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	info := &CacheInfo{
		Hit:       resp.Header.Get("X-Cache") == "hit",
		ETag:      resp.Header.Get("ETag"),
		RequestID: resp.Header.Get("X-Request-Id"),
	}
	if resp.StatusCode == http.StatusNotModified {
		info.NotModified = true
		return info, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	if err := api.DecodeJSON(resp.Body, out); err != nil {
		return nil, fmt.Errorf("client: decode response: %w", err)
	}
	return info, nil
}

// statusError builds the error for a non-200 response from its
// ErrorResponse body (at most 64 KiB of it is read) or, failing that, its
// status text, carrying any Retry-After hint.
func statusError(resp *http.Response) error {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	var e api.ErrorResponse
	if api.DecodeJSON(io.LimitReader(resp.Body, 1<<16), &e) == nil && e.Error != "" {
		apiErr.Message = e.Error
	} else {
		apiErr.Message = http.StatusText(resp.StatusCode)
	}
	if ra := retryAfter(resp); ra > 0 {
		return &retryAfterError{APIError: apiErr, after: ra}
	}
	return apiErr
}

// retryAfterError carries the server's Retry-After hint with the error.
type retryAfterError struct {
	*APIError
	after time.Duration
}

func (e *retryAfterError) Unwrap() error { return e.APIError }

// delay resolves the wait before the attempt-th try (attempt >= 1):
// exponential backoff with equal jitter — half the exponential step is
// kept, the other half is drawn uniformly at random — so a fleet of
// clients rejected together retries spread out, not in synchronized
// waves. The server's Retry-After is a floor: when it asks for more than
// the jittered delay, it wins.
func (c *Client) delay(attempt int, lastErr error) time.Duration {
	d := c.backoff << (attempt - 1)
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	if d > 1 {
		d = d/2 + c.jitter(d/2+1)
	}
	var ra *retryAfterError
	if errors.As(lastErr, &ra) && ra.after > d {
		d = ra.after
	}
	return d
}

// jitter draws a uniform duration in [0, n) from the client's seeded
// source, or the process-global one when unseeded.
func (c *Client) jitter(n time.Duration) time.Duration {
	if n <= 1 {
		return 0
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng != nil {
		return time.Duration(c.rng.Int63n(int64(n)))
	}
	return time.Duration(rand.Int63n(int64(n)))
}

// retryAfter parses a Retry-After header in seconds (0 when absent).
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	sec, err := strconv.Atoi(v)
	if err != nil || sec < 0 {
		return 0
	}
	return time.Duration(sec) * time.Second
}

// sleep waits for d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
