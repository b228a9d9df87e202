package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/serve/apitypes"
)

// Client talks to an imtd server. The zero value is not usable; use New,
// which sets every default below.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8866".
	BaseURL string
	// HTTPClient defaults to a client with no overall timeout (requests
	// carry their own deadlines via context).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first try (default 4).
	// Only backpressure (429, 503 with Retry-After) and transport errors
	// are retried; semantic failures (400, 500, 504) are not.
	MaxRetries int
	// BaseBackoff seeds the jittered exponential backoff (default
	// 100ms); a server Retry-After overrides it as a floor.
	BaseBackoff time.Duration
	// MaxBackoff caps one sleep (default 5s).
	MaxBackoff time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a client for the server at baseURL with default retry
// policy.
func New(baseURL string) *Client {
	return &Client{
		BaseURL:     strings.TrimRight(baseURL, "/"),
		HTTPClient:  &http.Client{},
		MaxRetries:  4,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  5 * time.Second,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Sim runs one cell and returns its result. Backpressure responses are
// retried under ctx with jittered exponential backoff honoring
// Retry-After.
func (c *Client) Sim(ctx context.Context, req apitypes.SimRequest) (apitypes.CellResult, error) {
	var res apitypes.CellResult
	err := c.retry(ctx, func() error {
		return c.call(ctx, http.MethodPost, "/v1/sim", req, &res)
	})
	return res, err
}

// Sweep streams a sweep, calling fn for every cell line as it arrives
// (a non-nil fn error aborts the stream) and returning the final
// summary. The request is retried on backpressure until the stream
// opens; the stream itself is read once and never requested again —
// per-cell failures arrive as CellResult.Error lines, and a cut stream
// is an error.
func (c *Client) Sweep(ctx context.Context, req apitypes.SweepRequest, fn func(apitypes.CellResult) error) (apitypes.SweepSummary, error) {
	return c.sweep(ctx, req, nil, fn)
}

// SweepWatch is Sweep for a watched run (req.Watch true): onRoom is
// called with the telemetry room's join code as soon as the response
// headers arrive — before any cell finishes — so watchers can attach
// to the live broadcast while the sweep is still running.
func (c *Client) SweepWatch(ctx context.Context, req apitypes.SweepRequest, onRoom func(room string), fn func(apitypes.CellResult) error) (apitypes.SweepSummary, error) {
	req.Watch = true
	return c.sweep(ctx, req, onRoom, fn)
}

func (c *Client) sweep(ctx context.Context, req apitypes.SweepRequest, onRoom func(string), fn func(apitypes.CellResult) error) (apitypes.SweepSummary, error) {
	resp, err := c.attach(ctx, func() (*http.Response, error) {
		return c.send(ctx, http.MethodPost, "/v1/sweep", req)
	})
	if err != nil {
		return apitypes.SweepSummary{}, err
	}
	defer resp.Body.Close()
	if room := resp.Header.Get("X-Watch-Room"); onRoom != nil && room != "" {
		onRoom(room)
	}
	return readStream[apitypes.SweepSummary](resp.Body, fn)
}

// Stats fetches the server's activity counters. Against an imtgw
// gateway the counters are the fleet-wide aggregate; GatewayStats
// additionally exposes the per-shard breakdown.
func (c *Client) Stats(ctx context.Context) (apitypes.StatsSnapshot, error) {
	var snap apitypes.StatsSnapshot
	err := c.call(ctx, http.MethodGet, "/v1/statsz", nil, &snap)
	return snap, err
}

// GatewayStats fetches /v1/statsz decoded as a gateway snapshot: the
// aggregate counters plus the gateway section and per-shard breakdown.
// Against a plain imtd shard, Gateway is nil and Shards empty.
func (c *Client) GatewayStats(ctx context.Context) (apitypes.GatewaySnapshot, error) {
	var snap apitypes.GatewaySnapshot
	err := c.call(ctx, http.MethodGet, "/v1/statsz", nil, &snap)
	return snap, err
}

// Workloads fetches the catalog listing.
func (c *Client) Workloads(ctx context.Context) (apitypes.CatalogResponse, error) {
	var cat apitypes.CatalogResponse
	err := c.call(ctx, http.MethodGet, "/v1/workloads", nil, &cat)
	return cat, err
}

// Health returns nil when the server answers healthy, an *APIError
// when it is draining, and a transport error when it is unreachable.
func (c *Client) Health(ctx context.Context) error {
	resp, err := c.send(ctx, http.MethodGet, "/v1/healthz", nil)
	if err == nil {
		resp.Body.Close()
	}
	return err
}

// retry runs attempt until it succeeds, fails non-retryably, exhausts
// MaxRetries, or ctx ends. Between attempts it waits the client's
// backoff, with a server Retry-After as the floor of that wait.
func (c *Client) retry(ctx context.Context, attempt func() error) error {
	backoff := c.BaseBackoff
	for try := 0; ; try++ {
		err := attempt()
		if err == nil || try >= c.MaxRetries || !retryable(err) {
			return err
		}
		if ctx.Err() != nil {
			// The caller ended the retry loop, possibly while this
			// attempt's backpressure answer was in flight.
			return ctx.Err()
		}
		var floor time.Duration
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			floor = apiErr.RetryAfter
		}
		if backoff, err = c.wait(ctx, backoff, floor); err != nil {
			return err
		}
	}
}

// wait is the one backoff sleep of retry and follow: a jittered draw
// from backoff, at least floor, cut short when ctx ends. It returns the
// next backoff, doubled and capped at MaxBackoff.
func (c *Client) wait(ctx context.Context, backoff, floor time.Duration) (time.Duration, error) {
	select {
	case <-time.After(max(c.jitter(backoff), floor)):
		return min(2*backoff, c.MaxBackoff), nil
	case <-ctx.Done():
		return backoff, ctx.Err()
	}
}

// retryable: backpressure statuses and transport-level failures. A
// context error is never retryable (the caller's budget is spent), and
// neither are semantic failures — a 400 will fail identically forever,
// a 404 names an unknown or collected resource, and a 504 means the
// server already spent the request's deadline.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Retryable()
	}
	// Anything else is a transport error (refused, reset, a stream cut
	// mid-body, …).
	return true
}

// jitter draws uniformly from [d/2, d): "equal jitter", decorrelating
// a herd of clients that all got the same 429 at the same instant.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	half := d / 2
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}

// request builds method on path. A non-nil body travels as JSON, or
// as raw bytes when it is an io.Reader.
func (c *Client) request(ctx context.Context, method, path string, body any) (*http.Request, error) {
	var rd io.Reader
	ctype := "application/json"
	switch b := body.(type) {
	case nil:
	case io.Reader:
		rd, ctype = b, "application/octet-stream"
	default:
		blob, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err == nil && rd != nil {
		req.Header.Set("Content-Type", ctype)
	}
	return req, err
}

// do sends req and returns the response once its status is 2xx; any
// other status is the *APIError. The caller closes the body.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// send is do of the request method on path with body.
func (c *Client) send(ctx context.Context, method, path string, body any) (*http.Response, error) {
	req, err := c.request(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

// call sends method on path with body and decodes the 2xx JSON answer
// into v.
func (c *Client) call(ctx context.Context, method, path string, body, v any) error {
	resp, err := c.send(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(io.LimitReader(resp.Body, apitypes.MaxRequestBytes)).Decode(v)
}
