package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/client"
)

// Options configures a Gateway.
type Options struct {
	// FrontendOptions are shared with imtd.
	serve.FrontendOptions
	// Shards is the fleet of imtd base URLs (e.g.
	// "http://127.0.0.1:8866"). At least one is required.
	Shards []string
	// Replicas is the virtual-node count per shard on the hash ring
	// (0 = DefaultReplicas; NewRing resolves it).
	Replicas int
	// ProbeInterval is the background health-probe period (0 = 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /v1/healthz probe (0 = 2s).
	ProbeTimeout time.Duration
}

// statszTimeout bounds each shard's statsz fetch during aggregation.
const statszTimeout = 2 * time.Second

func (o Options) withDefaults() Options {
	o.FrontendOptions = o.FrontendOptions.WithDefaults()
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	return o
}

// Gateway is the ring executor behind imtgw's Frontend: a sharding
// front for a fleet of imtd shards that holds no state that changes an
// answer — its only memory is a bounded memo of immutable /v1/sim
// results. It consistent-hashes cells across the fleet on their runner
// cache keys, scatters sweep grids as per-shard POST /v1/sweep cell
// lists, merges the shards' NDJSON streams in completion order, and
// reroutes cells off shards that fail mid-flight. Construct with New,
// serve the Frontend's Handler, stop with Close.
type Gateway struct {
	*serve.Frontend
	opts   Options
	ring   *Ring
	pool   *client.Pool
	shards []*shardState
	byURL  map[string]*shardState
	memo   memo

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once

	mRequests      *obs.Counter
	mCells         *obs.Counter
	mTracePushes   *obs.Counter
	mRerouted      *obs.Counter
	mMemoHits      *obs.Counter
	mShardErrors   *obs.Counter
	mBreakerOpens  *obs.Counter
	mProbes        *obs.Counter
	mProbeFailures *obs.Counter
	mShardsUp      *obs.Gauge
}

// New builds a gateway over opts.Shards and starts its background
// health prober (one immediate synchronous round, so routing state is
// populated before the first request).
func New(opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(opts.Shards, opts.Replicas)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		opts:      opts,
		ring:      ring,
		pool:      client.NewPool(),
		byURL:     make(map[string]*shardState),
		stopProbe: make(chan struct{}),
	}
	for _, url := range ring.Shards() {
		ss := &shardState{url: url, br: newBreaker()}
		g.shards = append(g.shards, ss)
		g.byURL[url] = ss
	}
	hub := &obs.Hub{Metrics: obs.NewRegistry()}
	reg := hub.Metrics
	g.mRequests = reg.Counter("serve_gw_requests_total", "API requests received by the gateway")
	g.mCells = reg.Counter("serve_gw_cells_total", "cells delivered to clients through the gateway")
	g.mTracePushes = reg.Counter("serve_gw_trace_pushes_total", "trace blobs pushed shard-to-shard after a trace_not_found miss")
	g.mRerouted = reg.Counter("serve_gw_rerouted_total", "cells rerouted to another shard after a shard failure")
	g.mMemoHits = reg.Counter("serve_gw_memo_hits_total", "/v1/sim requests answered from the gateway's result memo")
	g.mShardErrors = reg.Counter("serve_gw_shard_errors_total", "shard request/stream failures observed by the gateway")
	g.mBreakerOpens = reg.Counter("serve_gw_breaker_opens_total", "shard breaker transitions to open")
	g.mProbes = reg.Counter("serve_gw_probes_total", "shard health probes sent")
	g.mProbeFailures = reg.Counter("serve_gw_probe_failures_total", "shard health probes that failed")
	g.mShardsUp = reg.Gauge("serve_gw_shards_up", "shards currently routable (breaker not open)")
	m := serve.FrontendMetrics{
		Hub:      hub,
		Requests: g.mRequests,
		Cells:    g.mCells,
		Latency:  reg.HistogramVec("serve_gw_request_seconds", "route", "gateway end-to-end request latency by route", obs.DurationBuckets),
	}
	g.Frontend = serve.NewFrontend(opts.FrontendOptions, g, m, obs.NewManifest("imtgw", struct {
		Shards   []string
		Replicas int
	}{ring.Shards(), ring.Replicas()}))
	g.probeAll(context.Background())
	g.probeWG.Add(1)
	go g.prober()
	return g, nil
}

// Ring returns the gateway's hash ring (read-only).
func (g *Gateway) Ring() *Ring { return g.ring }

// Close stops the background prober and drops idle shard connections.
// Idempotent.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.stopProbe)
		g.probeWG.Wait()
		g.pool.CloseIdle()
	})
}

// Drain is Close: once the HTTP side is quiet the gateway has no state
// to flush, only the prober to stop.
func (g *Gateway) Drain(context.Context) error {
	g.Close()
	return nil
}

// Check accepts every resolved cell: trace blobs live on the shards,
// which report a missing one as trace_not_found at run time.
func (g *Gateway) Check(serve.Cell) error { return nil }

// assign groups cells by their first routable shard in ring order.
// Cells with no routable shard at all land in the second return value.
func (g *Gateway) assign(cells []serve.Cell) (map[string][]serve.Cell, []serve.Cell) {
	groups := make(map[string][]serve.Cell)
	var unroutable []serve.Cell
	for _, c := range cells {
		placed := false
		for _, url := range g.ring.Order(c.Key) {
			if g.byURL[url].br.routable() {
				groups[url] = append(groups[url], c)
				placed = true
				break
			}
		}
		if !placed {
			unroutable = append(unroutable, c)
		}
	}
	return groups, unroutable
}

// errNoShard is the verdict when every shard is open or failed the
// request.
var errNoShard = &client.APIError{
	StatusCode: http.StatusServiceUnavailable,
	Code:       apitypes.CodeDraining,
	Message:    "cluster: no healthy shard available",
}

// Sim answers a memoized cell from the memo; any other cell goes to
// its ring owner, walking the ring order past shards that fail, and a
// memoizable answer is kept. A shard's semantic verdict is returned as
// its *client.APIError, which the Frontend relays unchanged.
func (g *Gateway) Sim(ctx context.Context, req apitypes.SimRequest, cell serve.Cell, _ func(runner.LiveSample)) (apitypes.CellResult, error) {
	keep := memoizable(cell)
	if keep {
		t0 := time.Now()
		if e, ok := g.memo.get(cell.Key); ok {
			g.mMemoHits.Inc()
			st := e.stats
			return apitypes.CellResult{
				Workload:  cell.Ref.Workload,
				Mode:      cell.Ref.Mode,
				Cached:    true,
				CacheKey:  e.cacheKey,
				ElapsedMs: float64(time.Since(t0)) / float64(time.Millisecond),
				Stats:     &st,
				Shard:     e.shard,
			}, nil
		}
	}
	hops := 0
	ensured := false
	order := g.ring.Order(cell.Key)
	for i := 0; i < len(order); i++ {
		url := order[i]
		ss := g.byURL[url]
		if !ss.br.routable() {
			continue
		}
		res, err := g.pool.For(url).Sim(ctx, req)
		if err == nil {
			ss.br.onSuccess(false)
			res.Shard = url
			res.Rerouted = hops > 0
			if hops > 0 {
				g.mRerouted.Inc()
			}
			if keep && res.Stats != nil {
				g.memo.put(cell.Key, memoEntry{stats: *res.Stats, shard: url, cacheKey: res.CacheKey})
			}
			return res, nil
		}
		if cell.Digest != "" && !ensured && errors.Is(err, client.ErrTraceNotFound) {
			// The ring-preferred shard does not hold the blob (evicted,
			// fresh shard, or the trace was uploaded elsewhere). Push it
			// from whichever shard has it and retry the same shard once.
			if pushErr := g.ensureTrace(ctx, url, cell.Digest); pushErr == nil {
				ensured = true
				i--
				continue
			}
			// No shard holds the blob: the shard's 404 stands — the
			// client must re-upload.
		}
		if !reroutable(err) {
			// Semantic failure (4xx, 504, 500): the shard answered; its
			// verdict stands. Cells are deterministic, so another shard
			// would fail identically — and a 4xx must never be retried.
			return apitypes.CellResult{}, err
		}
		g.shardFailed(ss)
		ss.rerouted.Add(1)
		hops++
	}
	return apitypes.CellResult{}, errNoShard
}

// reroutable: transport failures and shard drains move a cell to
// another shard; anything the shard actually answered (including 429
// after the per-shard client exhausted its backpressure retries) does
// not — never retry a 4xx on another shard. Context expiry is the
// caller's budget, not the shard's failure.
func reroutable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return errors.Is(apiErr, client.ErrDraining)
	}
	return true // transport error: refused, reset, shard died mid-body
}

// shardFailed records a request-path failure on ss: breaker opens,
// counters bump.
func (g *Gateway) shardFailed(ss *shardState) {
	g.mShardErrors.Inc()
	if ss.br.onFailure() {
		g.mBreakerOpens.Inc()
	}
	g.gaugeShardsUp()
}

// Sweep scatters the grid as one NDJSON sweep stream per shard
// carrying exactly that shard's cells and merges the streams in
// completion order. A failed stream's undelivered cells are reassigned
// to the surviving shards (their lines arrive flagged rerouted); the
// merge deduplicates by cell identity, so every cell is emitted exactly
// once no matter how many times a shard died mid-flight.
func (g *Gateway) Sweep(ctx context.Context, req apitypes.SweepRequest, cells []serve.Cell, _ func(serve.Cell) func(runner.LiveSample), emit func(apitypes.CellResult, error)) {
	// A few lines of slack so shard readers are not paced line by line
	// by the client's writes.
	lines := make(chan apitypes.CellResult, 64)
	var wg sync.WaitGroup
	groups, unroutable := g.assign(cells)
	for url, group := range groups {
		wg.Add(1)
		go g.sweepShard(ctx, &wg, lines, url, group, req, 0, false)
	}
	if len(unroutable) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.failCells(lines, unroutable, 0, errNoShard.Message)
		}()
	}
	go func() {
		wg.Wait()
		close(lines)
	}()
	delivered := make(map[apitypes.CellRef]bool, len(cells))
	for res := range lines {
		ref := apitypes.CellRef{Workload: res.Workload, Mode: res.Mode}
		if delivered[ref] {
			continue
		}
		delivered[ref] = true
		if res.Rerouted {
			g.mRerouted.Inc()
		}
		emit(res, nil)
	}
}

// sweepShard streams one shard's share of a sweep, forwarding each
// line annotated with the shard and reroute status. When the stream
// fails, the undelivered remainder is reassigned across the surviving
// fleet and streamed by freshly spawned workers; after maxHops (one
// per shard) the remainder is reported failed instead, bounding the
// reroute cascade even if breakers heal mid-sweep. A trace_not_found
// verdict gets one push-and-retry on the same shard (ensured bounds
// it): the gateway copies the missing blobs over from whichever shard
// holds them, then resubmits the same cell list.
func (g *Gateway) sweepShard(ctx context.Context, wg *sync.WaitGroup, lines chan<- apitypes.CellResult, url string, cells []serve.Cell, req apitypes.SweepRequest, hops int, ensured bool) {
	defer wg.Done()
	shardReq := apitypes.SweepRequest{
		Cells:          refsOf(cells),
		MaxCycles:      req.MaxCycles,
		SampleInterval: req.SampleInterval,
		TimeoutMs:      req.TimeoutMs,
	}
	seen := make(map[apitypes.CellRef]bool, len(cells))
	ss := g.byURL[url]
	_, err := g.pool.Raw(url).Sweep(ctx, shardReq, func(res apitypes.CellResult) error {
		res.Shard = url
		res.Rerouted = hops > 0
		seen[apitypes.CellRef{Workload: res.Workload, Mode: res.Mode}] = true
		select {
		case lines <- res:
		case <-ctx.Done():
			return ctx.Err()
		}
		return nil
	})
	if err == nil {
		ss.br.onSuccess(false)
		return
	}
	if ctx.Err() != nil {
		// The sweep's own deadline expired; report the remainder as
		// timed out rather than rerouting against a spent budget.
		g.failCells(lines, remainder(cells, seen), hops+1, "cluster: sweep deadline exceeded")
		return
	}
	remaining := remainder(cells, seen)
	if !ensured && errors.Is(err, client.ErrTraceNotFound) {
		// The shard rejected the whole cell list because a trace blob is
		// missing there. Push every trace the group references, then
		// retry the same shard exactly once.
		pushed := true
		for _, digest := range traceDigests(remaining) {
			if pushErr := g.ensureTrace(ctx, url, digest); pushErr != nil {
				pushed = false
				break
			}
		}
		if pushed {
			wg.Add(1)
			go g.sweepShard(ctx, wg, lines, url, remaining, req, hops, true)
			return
		}
	}
	if !reroutable(err) {
		// The shard answered with a semantic failure (e.g. it rejected
		// the cell list). Surfacing it per cell keeps the merge exact.
		g.failCells(lines, remaining, hops, fmt.Sprintf("cluster: shard %s: %v", url, err))
		return
	}
	g.shardFailed(ss)
	ss.rerouted.Add(uint64(len(remaining)))
	if hops+1 >= len(g.shards) {
		g.failCells(lines, remaining, hops+1, fmt.Sprintf("cluster: shard %s: %v (reroute budget exhausted)", url, err))
		return
	}
	groups, unroutable := g.assign(remaining)
	for nextURL, group := range groups {
		wg.Add(1)
		// ensured resets: the replacement shard may be missing the blob
		// too, and deserves its own push-and-retry.
		go g.sweepShard(ctx, wg, lines, nextURL, group, req, hops+1, false)
	}
	g.failCells(lines, unroutable, hops+1, errNoShard.Message)
}

// traceDigests returns the distinct trace digests the cells reference,
// in first-appearance order.
func traceDigests(cells []serve.Cell) []string {
	var out []string
	seen := make(map[string]bool)
	for _, c := range cells {
		if c.Digest != "" && !seen[c.Digest] {
			seen[c.Digest] = true
			out = append(out, c.Digest)
		}
	}
	return out
}

// failCells reports cells the sweep gave up on, each with msg.
func (g *Gateway) failCells(lines chan<- apitypes.CellResult, cells []serve.Cell, hops int, msg string) {
	for _, c := range cells {
		lines <- apitypes.CellResult{
			Workload: c.Ref.Workload,
			Mode:     c.Ref.Mode,
			Error:    msg,
			Rerouted: hops > 0,
		}
	}
}

func refsOf(cells []serve.Cell) []apitypes.CellRef {
	refs := make([]apitypes.CellRef, len(cells))
	for i, c := range cells {
		refs[i] = c.Ref
	}
	return refs
}

func remainder(cells []serve.Cell, seen map[apitypes.CellRef]bool) []serve.Cell {
	var rest []serve.Cell
	for _, c := range cells {
		if !seen[c.Ref] {
			rest = append(rest, c)
		}
	}
	return rest
}

// Stats assembles the gateway snapshot: every shard's /v1/statsz
// fetched concurrently (bounded by statszTimeout each), summed into
// the aggregate, with the per-shard breakdown carrying breaker states
// and reroute counts. Unreachable shards stay in the breakdown with an
// error and are excluded from the aggregate.
func (g *Gateway) Stats(ctx context.Context) apitypes.GatewaySnapshot {
	snap := apitypes.GatewaySnapshot{
		StatsSnapshot: g.Snapshot(),
		Shards:        make([]apitypes.ShardSnapshot, len(g.shards)),
	}
	var wg sync.WaitGroup
	for i, ss := range g.shards {
		wg.Add(1)
		go func(i int, ss *shardState) {
			defer wg.Done()
			row := apitypes.ShardSnapshot{
				Shard:    ss.url,
				Breaker:  ss.br.State(),
				Rerouted: ss.rerouted.Load(),
			}
			sctx, cancel := context.WithTimeout(ctx, statszTimeout)
			defer cancel()
			st, err := g.pool.Raw(ss.url).Stats(sctx)
			if err != nil {
				row.Error = err.Error()
			} else {
				row.Stats = &st
			}
			snap.Shards[i] = row
		}(i, ss)
	}
	wg.Wait()
	gw := apitypes.GatewayStats{ShardsTotal: len(g.shards), MemoEntries: g.memo.entries()}
	for _, row := range snap.Shards {
		if row.Breaker != apitypes.BreakerOpen {
			gw.ShardsUp++
		}
		if row.Stats == nil {
			continue
		}
		st := row.Stats
		snap.Requests += st.Requests
		snap.Cells += st.Cells
		snap.CacheHits += st.CacheHits
		snap.CoalesceHits += st.CoalesceHits
		snap.Rejected += st.Rejected
		snap.Timeouts += st.Timeouts
		snap.Errors += st.Errors
		snap.Inflight += st.Inflight
		snap.QueueDepth += st.QueueDepth
		if st.Traces != nil {
			if snap.Traces == nil {
				snap.Traces = &apitypes.TraceStoreStats{}
			}
			snap.Traces.Blobs += st.Traces.Blobs
			snap.Traces.Bytes += st.Traces.Bytes
			snap.Traces.QuotaBytes += st.Traces.QuotaBytes
			snap.Traces.Puts += st.Traces.Puts
			snap.Traces.PutHits += st.Traces.PutHits
			snap.Traces.Rejected += st.Traces.Rejected
			snap.Traces.Evictions += st.Traces.Evictions
			snap.Traces.Deletes += st.Traces.Deletes
		}
	}
	gw.Requests = g.mRequests.Value()
	gw.Cells = g.mCells.Value()
	gw.Rerouted = g.mRerouted.Value()
	gw.MemoHits = g.mMemoHits.Value()
	gw.ShardErrors = g.mShardErrors.Value()
	gw.BreakerOpens = g.mBreakerOpens.Value()
	snap.Gateway = &gw
	return snap
}

// Statsz is Stats, the /v1/statsz body.
func (g *Gateway) Statsz(ctx context.Context) any { return g.Stats(ctx) }

// NotReady reports "no healthy shards" while every breaker is open.
func (g *Gateway) NotReady() string {
	for _, ss := range g.shards {
		if ss.br.routable() {
			return ""
		}
	}
	return "no healthy shards"
}

// Manifest pins this gateway run: fleet identity plus current routing
// counters and the metrics snapshot. Call at drain time.
func (g *Gateway) Manifest() obs.Manifest {
	m := g.Frontend.Manifest()
	m.Counters = map[string]uint64{
		"requests":      g.mRequests.Value(),
		"cells":         g.mCells.Value(),
		"rerouted":      g.mRerouted.Value(),
		"memo_hits":     g.mMemoHits.Value(),
		"shard_errors":  g.mShardErrors.Value(),
		"breaker_opens": g.mBreakerOpens.Value(),
	}
	return m
}
