package client

import (
	"net/http"
	"sync"
	"time"
)

// Pool hands out one Client per base URL, all sharing a single
// http.Transport so every caller of the same shard reuses its warm
// connections. The imtgw gateway routes every request through a Pool:
// a fleet of N shards costs one transport and N cached Clients, not a
// dial per request.
//
// Two flavors exist per URL, each otherwise configured as New leaves
// it: For returns a client with the default backpressure retry policy
// (interactive requests), Raw one with retries disabled — sweep
// streams and health probes must observe failures immediately so the
// gateway can reroute or trip the shard's breaker instead of retrying
// into a dead shard.
type Pool struct {
	mu        sync.Mutex
	transport *http.Transport
	retrying  map[string]*Client
	raw       map[string]*Client
}

// NewPool returns an empty pool with a dedicated transport tuned for a
// small fleet of long-lived shard connections.
func NewPool() *Pool {
	return &Pool{
		transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
		retrying: make(map[string]*Client),
		raw:      make(map[string]*Client),
	}
}

// For returns the pooled retrying client for baseURL, creating it on
// first use.
func (p *Pool) For(baseURL string) *Client {
	return p.get(p.retrying, baseURL, -1)
}

// Raw returns the pooled no-retry client for baseURL: every
// backpressure response and transport failure surfaces on the first
// attempt.
func (p *Pool) Raw(baseURL string) *Client {
	return p.get(p.raw, baseURL, 0)
}

func (p *Pool) get(m map[string]*Client, baseURL string, maxRetries int) *Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := m[baseURL]; ok {
		return c
	}
	c := New(baseURL)
	c.HTTPClient = &http.Client{Transport: p.transport}
	if maxRetries >= 0 {
		c.MaxRetries = maxRetries
	}
	m[baseURL] = c
	return c
}

// CloseIdle drops the pool's idle connections (gateway drain).
func (p *Pool) CloseIdle() {
	p.transport.CloseIdleConnections()
}
