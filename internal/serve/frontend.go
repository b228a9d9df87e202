package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/client"
	"repro/internal/serve/rooms"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// FrontendOptions are the settings imtd and imtgw share; Options and
// cluster.Options embed them.
type FrontendOptions struct {
	// DefaultTimeout applies to /v1/sim requests without timeout_ms
	// (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-request deadlines and bounds whole sweeps
	// (0 = 5m). A gateway's settings should match its shards': the
	// gateway's deadline is the outer bound, the shard's the inner.
	MaxTimeout time.Duration
	// MaxSweepCells caps the server-side grid expansion (0 = 4096).
	MaxSweepCells int
	// Debug mounts the obs debug mux (pprof, expvar, /metrics) on the
	// handler.
	Debug bool
	// Obs receives telemetry (nil = a fresh hub).
	Obs *obs.Hub
	// Config is the simulated machine (zero NumSMs =
	// gpusim.DefaultConfig). Cache keys — and therefore a gateway's
	// routing — are computed from it, so a fleet must agree on it.
	Config gpusim.Config
}

// WithDefaults fills the zero fields with their documented defaults.
func (o FrontendOptions) WithDefaults() FrontendOptions {
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.MaxSweepCells <= 0 {
		o.MaxSweepCells = 4096
	}
	if o.Obs == nil {
		o.Obs = obs.NewHub()
	}
	if o.Config.NumSMs == 0 {
		o.Config = gpusim.DefaultConfig()
	}
	return o
}

// Cell is one validated cell: its wire identity, the runner job it
// simulates as, and the runner cache key computed once from both.
type Cell struct {
	// Ref is the request's own spelling of the cell.
	Ref apitypes.CellRef
	// Job carries mode, carve and cycle cap, plus the catalog workload
	// or, for a trace:<digest> cell, the trace identity as Job.Key (the
	// replay itself is attached only when a shard runs the cell).
	Job runner.Job
	// SampleInterval is the request's telemetry sampling interval; it is
	// part of the machine config and so of Key.
	SampleInterval uint64
	// Digest is the trace store digest of a trace:<digest> cell.
	Digest string
	// Key is runner.CacheKeyFor of the cell: the coalescing key on a
	// shard, the ring position on a gateway.
	Key string
}

// Executor runs the cells a Frontend has validated. serve.Server is
// the local executor (cache, coalescing, admission, runner);
// cluster.Gateway is the ring executor (scatter across imtd shards).
type Executor interface {
	// Check is the executor's own admission test of a resolved cell,
	// run before any response byte is written.
	Check(cell Cell) error
	// Sim runs one cell on the calling goroutine.
	Sim(ctx context.Context, req apitypes.SimRequest, cell Cell, sink func(runner.LiveSample)) (apitypes.CellResult, error)
	// Sweep runs cells and calls emit once per cell, in completion
	// order and never concurrently; it returns after the last emit.
	// sinkFor, when non-nil, supplies each cell's live-sample sink.
	Sweep(ctx context.Context, req apitypes.SweepRequest, cells []Cell, sinkFor func(Cell) func(runner.LiveSample), emit func(apitypes.CellResult, error))
}

// FrontendMetrics are the series a Frontend records into. Each
// executor registers its own names (serve_* on imtd, serve_gw_* on
// imtgw); nil fields are skipped.
type FrontendMetrics struct {
	Requests, Cells            *obs.Counter
	Rejected, Timeouts, Errors *obs.Counter
	Latency                    *obs.HistogramVec
}

// Frontend is the HTTP layer imtd and imtgw share: it decodes
// requests, refuses work while draining, resolves and expands cells,
// clamps deadlines, maps failures onto the error envelope and streams
// results, leaving execution to its Executor.
type Frontend struct {
	opts     FrontendOptions
	exec     Executor
	metrics  FrontendMetrics
	manifest obs.Manifest
	byName   map[string]workload.Workload
	draining atomic.Bool
	started  time.Time

	// rooms hosts watch:true telemetry; nil refuses watch requests (a
	// gateway: rooms are shard-scoped). watchSample is the sampling
	// interval forced onto watch requests that set none.
	rooms       *rooms.Registry
	watchSample uint64
}

// NewFrontend builds the front end over exec. opts must already carry
// its defaults; manifest is the run's construction-time identity.
func NewFrontend(opts FrontendOptions, exec Executor, m FrontendMetrics, manifest obs.Manifest) *Frontend {
	f := &Frontend{
		opts:     opts,
		exec:     exec,
		metrics:  m,
		manifest: manifest,
		byName:   make(map[string]workload.Workload),
		started:  time.Now(),
	}
	for _, w := range workload.Catalog() {
		f.byName[w.Name] = w
	}
	return f
}

// Hub returns the observability hub (metrics registry, trace recorder,
// cell log).
func (f *Frontend) Hub() *obs.Hub { return f.opts.Obs }

// Mux returns a mux carrying the shared routes; the executor adds its
// own before serving it:
//
//	POST /v1/sim        one cell → CellResult JSON
//	POST /v1/sweep      grid → NDJSON CellResult stream + SweepSummary
//	GET  /v1/workloads  catalog listing
//
// plus, when Debug is set, the obs debug mux (/metrics,
// /metrics.json, /debug/vars, /debug/pprof/).
func (f *Frontend) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sim", f.handleSim)
	mux.HandleFunc("POST /v1/sweep", f.handleSweep)
	mux.HandleFunc("GET /v1/workloads", f.handleWorkloads)
	if f.opts.Debug {
		dbg := obs.DebugMux(f.opts.Obs.Metrics)
		mux.Handle("/debug/", dbg)
		mux.Handle("GET /metrics", dbg)
		mux.Handle("GET /metrics.json", dbg)
	}
	return mux
}

// SetDraining flips the front end into (or out of) drain mode: new work
// is refused with 503 + Retry-After while in-flight requests run to
// completion. Daemon.Run sets it before closing the listener.
func (f *Frontend) SetDraining(v bool) { f.draining.Store(v) }

// Draining reports whether drain mode is on.
func (f *Frontend) Draining() bool { return f.draining.Load() }

// Snapshot is the identity half of /v1/statsz: drain state, uptime and
// build identity, so a watcher can tell which binary and machine
// configuration it is observing.
func (f *Frontend) Snapshot() apitypes.StatsSnapshot {
	up := time.Since(f.started)
	return apitypes.StatsSnapshot{
		Draining:      f.Draining(),
		UptimeMs:      float64(up) / float64(time.Millisecond),
		UptimeSeconds: up.Seconds(),
		ConfigHash:    f.manifest.ConfigHash,
		GoVersion:     f.manifest.GoVersion,
		VCSRevision:   f.manifest.VCSRevision,
		VCSModified:   f.manifest.VCSModified,
	}
}

// Manifest pins this run: the construction-time identity plus current
// wall time and the metrics snapshot. Executors add their counters.
func (f *Frontend) Manifest() obs.Manifest {
	m := f.manifest
	m.WallSeconds = time.Since(f.started).Seconds()
	if f.opts.Obs.Metrics != nil {
		snap := f.opts.Obs.Metrics.Snapshot()
		m.Metrics = &snap
	}
	return m
}

func (f *Frontend) handleSim(w http.ResponseWriter, r *http.Request) {
	t0 := f.CountRequest()
	defer f.ObserveLatency(t0, "sim")
	if f.RejectDraining(w) {
		return
	}
	req, err := DecodeSimRequest(r.Body)
	if err == nil {
		err = f.prepareWatch(req.Watch, &req.SampleInterval)
	}
	if err != nil {
		f.writeInvalid(w, err)
		return
	}
	cell, err := f.resolveCell(req.Workload, req.Mode, req.MaxCycles, req.SampleInterval)
	if err != nil {
		f.writeInvalid(w, err)
		return
	}
	ctx, cancel := f.requestContext(r.Context(), req.TimeoutMs, f.opts.DefaultTimeout)
	defer cancel()
	var sink func(runner.LiveSample)
	var room *rooms.Room
	if req.Watch {
		// The join code rides in a header too, so a streaming-inclined
		// client could attach before the cell finishes; the JSON result
		// is the canonical carrier.
		room = f.rooms.Open()
		w.Header().Set("X-Watch-Room", room.Code())
		sink = roomSink(room, cellName(cell))
	}
	res, err := f.exec.Sim(ctx, req, cell, sink)
	if room != nil {
		publishCellDone(room, res, err)
		room.Close(apitypes.WatchSummary{Done: true})
		res.WatchRoom = room.Code()
	}
	if err != nil {
		f.WriteFailure(w, err)
		return
	}
	count(f.metrics.Cells)
	WriteJSON(w, http.StatusOK, res)
}

func (f *Frontend) handleSweep(w http.ResponseWriter, r *http.Request) {
	t0 := f.CountRequest()
	defer f.ObserveLatency(t0, "sweep")
	if f.RejectDraining(w) {
		return
	}
	req, err := DecodeSweepRequest(r.Body)
	if err == nil {
		err = f.prepareWatch(req.Watch, &req.SampleInterval)
	}
	if err != nil {
		f.writeInvalid(w, err)
		return
	}
	cells, err := f.ExpandSweep(req)
	if err != nil {
		f.writeInvalid(w, err)
		return
	}
	ctx, cancel := f.requestContext(r.Context(), req.TimeoutMs, f.opts.MaxTimeout)
	defer cancel()

	var room *rooms.Room
	var sinkFor func(Cell) func(runner.LiveSample)
	if req.Watch {
		// The join code must be available before the stream starts (the
		// whole point is watching the sweep live), so it goes out as a
		// response header ahead of the NDJSON body.
		room = f.rooms.Open()
		w.Header().Set("X-Watch-Room", room.Code())
		sinkFor = func(c Cell) func(runner.LiveSample) { return roomSink(room, cellName(c)) }
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	summary := apitypes.SweepSummary{Cells: len(cells)}
	shards := make(map[string]bool)
	clientGone := false
	f.exec.Sweep(ctx, req, cells, sinkFor, func(res apitypes.CellResult, err error) {
		if err != nil {
			res.Error = err.Error()
			res.Stats = nil
			f.countError(err)
		}
		if res.Error != "" {
			summary.Failed++
		} else {
			count(f.metrics.Cells)
		}
		if room != nil {
			publishCellDone(room, res, nil)
			res.WatchRoom = room.Code()
		}
		if res.Cached {
			summary.Cached++
		}
		if res.Coalesced {
			summary.Coalesced++
		}
		if res.Rerouted {
			summary.Rerouted++
		}
		if res.Shard != "" {
			shards[res.Shard] = true
		}
		if clientGone {
			return
		}
		if err := enc.Encode(res); err != nil {
			// The client hung up; let the executor finish, stop writing.
			clientGone = true
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	})
	if room != nil {
		room.Close(apitypes.WatchSummary{Done: true})
		summary.WatchRoom = room.Code()
	}
	summary.Done = true
	summary.Shards = len(shards)
	summary.ElapsedMs = millisSince(t0)
	_ = enc.Encode(summary)
	if flusher != nil {
		flusher.Flush()
	}
}

// prepareWatch validates a watch:true request and forces a sampling
// interval onto it — live telemetry requires sampling.
func (f *Frontend) prepareWatch(watch bool, sampleInterval *uint64) error {
	if !watch {
		return nil
	}
	if f.rooms == nil {
		return errors.New("serve: watch rooms are shard-scoped; submit the watched request to a shard directly")
	}
	if *sampleInterval == 0 {
		*sampleInterval = f.watchSample
	}
	return nil
}

func (f *Frontend) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	cat := workload.Catalog()
	resp := apitypes.CatalogResponse{
		Workloads: make([]apitypes.WorkloadInfo, 0, len(cat)),
		Suites:    workload.Suites(),
		Modes:     gpusim.TagModeNames(),
	}
	for _, wl := range cat {
		resp.Workloads = append(resp.Workloads, apitypes.WorkloadInfo{
			Name:           wl.Name,
			Suite:          wl.Suite,
			Pattern:        wl.Pattern.String(),
			FootprintBytes: wl.FootprintBytes,
		})
	}
	sort.Slice(resp.Workloads, func(i, j int) bool { return resp.Workloads[i].Name < resp.Workloads[j].Name })
	WriteJSON(w, http.StatusOK, resp)
}

// resolveCell validates one cell against the catalog and mode table,
// computes its cache key and runs the executor's Check. A
// trace:<digest> cell is keyed by its trace identity alone:
// runner.CacheKeyFor computes the same key from Job.Key that a shard
// computes with the replay attached, so a gateway routes trace cells to
// the shard whose cache (and trace store) already holds them.
func (f *Frontend) resolveCell(name, mode string, maxCycles, sampleInterval uint64) (Cell, error) {
	tm, carve, err := gpusim.ParseTagMode(mode)
	if err != nil {
		return Cell{}, err
	}
	cell := Cell{
		Ref:            apitypes.CellRef{Workload: name, Mode: mode},
		Job:            runner.Job{Mode: tm, Carve: carve, MaxCycles: maxCycles},
		SampleInterval: sampleInterval,
	}
	if digest, ok := strings.CutPrefix(name, "trace:"); ok {
		if !tracestore.ValidDigest(digest) {
			return Cell{}, fmt.Errorf("serve: malformed trace workload %q (want trace:<64 lowercase hex sha-256>)", name)
		}
		cell.Digest = digest
		cell.Job.Key = name
	} else {
		w, ok := f.byName[name]
		if !ok {
			return Cell{}, fmt.Errorf("serve: unknown workload %q (GET /v1/workloads lists the catalog)", name)
		}
		cell.Job.Workload = w
	}
	cell.Key, _ = runner.CacheKeyFor(f.cellConfig(sampleInterval), cell.Job) // catalog and keyed trace cells are always cacheable
	if err := f.exec.Check(cell); err != nil {
		return Cell{}, err
	}
	return cell, nil
}

// cellConfig is the machine a cell simulates under: the base machine
// plus the request's sampling interval. Mode and carve ride on the
// runner.Job (and are folded into the cache key by runner.CacheKeyFor).
func (f *Frontend) cellConfig(sampleInterval uint64) gpusim.Config {
	cfg := f.opts.Config
	cfg.SampleInterval = sampleInterval
	return cfg
}

// ExpandSweep turns a SweepRequest into its grid of cells:
// (named workloads ∪ suite members) × modes, plus any explicit
// req.Cells, in order and deduplicated by (workload, mode). An explicit
// cell list is how a gateway scatters one shard's share of a grid,
// which is rarely a clean product.
func (f *Frontend) ExpandSweep(req apitypes.SweepRequest) ([]Cell, error) {
	// names is the deduplicated workload axis: catalog names and
	// trace:<digest> references mix freely (resolveCell dispatches on
	// the prefix; validation happens per cell).
	var names []string
	seen := make(map[string]bool)
	addName := func(name string) {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, name := range req.Workloads {
		if _, ok := f.byName[name]; !ok && !strings.HasPrefix(name, "trace:") {
			return nil, fmt.Errorf("serve: unknown workload %q", name)
		}
		addName(name)
	}
	if req.Suite != "" {
		suite := workload.BySuite(req.Suite)
		if len(suite) == 0 {
			return nil, fmt.Errorf("serve: unknown suite %q (valid: %v)", req.Suite, workload.Suites())
		}
		for _, w := range suite {
			addName(w.Name)
		}
	}
	if len(names) == 0 && len(req.Cells) == 0 {
		return nil, errors.New("serve: sweep needs workloads, a suite, and/or explicit cells")
	}
	if len(names) > 0 && len(req.Modes) == 0 {
		return nil, errors.New("serve: sweep needs at least one mode")
	}
	cells := make([]Cell, 0, len(names)*len(req.Modes)+len(req.Cells))
	inGrid := make(map[apitypes.CellRef]bool, cap(cells))
	add := func(ref apitypes.CellRef) error {
		if inGrid[ref] {
			return nil
		}
		inGrid[ref] = true
		cell, err := f.resolveCell(ref.Workload, ref.Mode, req.MaxCycles, req.SampleInterval)
		if err != nil {
			return err
		}
		cells = append(cells, cell)
		return nil
	}
	for _, name := range names {
		for _, mode := range req.Modes {
			if err := add(apitypes.CellRef{Workload: name, Mode: mode}); err != nil {
				return nil, err
			}
		}
	}
	for _, ref := range req.Cells {
		if err := add(ref); err != nil {
			return nil, err
		}
	}
	if len(cells) > f.opts.MaxSweepCells {
		return nil, fmt.Errorf("serve: sweep expands to %d cells, server cap is %d", len(cells), f.opts.MaxSweepCells)
	}
	return cells, nil
}

// requestContext derives the cell-execution context: the request's
// timeout_ms clamped to MaxTimeout, or fallback when unset.
func (f *Frontend) requestContext(parent context.Context, timeoutMs int64, fallback time.Duration) (context.Context, context.CancelFunc) {
	d := fallback
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > f.opts.MaxTimeout {
		d = f.opts.MaxTimeout
	}
	return context.WithTimeout(parent, d)
}

// CountRequest counts one API request and returns its start time for
// ObserveLatency.
func (f *Frontend) CountRequest() time.Time {
	count(f.metrics.Requests)
	return time.Now()
}

// ObserveLatency records the request's end-to-end latency under route.
func (f *Frontend) ObserveLatency(t0 time.Time, route string) {
	if f.metrics.Latency != nil {
		f.metrics.Latency.With(route).Observe(time.Since(t0).Seconds())
	}
}

// RejectDraining refuses new work during drain with 503 + Retry-After,
// reporting whether it did.
func (f *Frontend) RejectDraining(w http.ResponseWriter) bool {
	if !f.Draining() {
		return false
	}
	f.WriteError(w, http.StatusServiceUnavailable, apitypes.CodeDraining, errors.New("serve: draining"))
	return true
}

// Unserved answers a route this process does not serve with a 404
// whose message says why, so a client pointed at the wrong process is
// not left guessing.
func (f *Frontend) Unserved(code, why string) http.HandlerFunc {
	err := errors.New(why)
	return func(w http.ResponseWriter, _ *http.Request) {
		f.CountRequest()
		f.WriteError(w, http.StatusNotFound, code, err)
	}
}

// writeInvalid rejects a request that failed to decode or resolve: an
// absent trace digest is the typed 404 a gateway reacts to by
// re-uploading the blob; everything else is the client's 400.
func (f *Frontend) writeInvalid(w http.ResponseWriter, err error) {
	if errors.Is(err, tracestore.ErrNotFound) {
		f.WriteError(w, http.StatusNotFound, apitypes.CodeTraceNotFound, err)
		return
	}
	f.WriteError(w, http.StatusBadRequest, apitypes.CodeBadRequest, err)
}

// statusFor maps an execution or trace-store error onto the API's
// failure table: the HTTP status plus the envelope code clients
// dispatch on.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, apitypes.CodeBackpressure
	case errors.Is(err, tracestore.ErrNotFound):
		// An absent blob, or one evicted between resolve and execute; the
		// typed 404 tells a gateway to re-upload the blob and retry.
		return http.StatusNotFound, apitypes.CodeTraceNotFound
	case errors.Is(err, tracestore.ErrOverQuota):
		return http.StatusRequestEntityTooLarge, apitypes.CodeTraceQuota
	case errors.Is(err, tracestore.ErrInUse):
		return http.StatusConflict, apitypes.CodeTraceInUse
	case errors.Is(err, tracestore.ErrBadTrace):
		return http.StatusBadRequest, apitypes.CodeBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, apitypes.CodeTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is never read but keeps logs
		// honest (499 is the de-facto client-closed-request code).
		return 499, apitypes.CodeCanceled
	default:
		return http.StatusInternalServerError, apitypes.CodeInternal
	}
}

// WriteFailure writes an execution error. A shard's own verdict (a
// *client.APIError relayed by a gateway) passes through unchanged —
// status, code, message and backoff hint — so a client cannot tell a
// gateway-fronted 429/504 from a direct one; any other error is mapped
// by statusFor.
func (f *Frontend) WriteFailure(w http.ResponseWriter, err error) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		code := apiErr.Code
		if code == "" {
			code = apitypes.CodeInternal
		}
		f.writeEnvelope(w, apiErr.StatusCode, apitypes.ErrorBody{Code: code, Message: apiErr.Message}, apiErr.RetryAfter)
		return
	}
	status, code := statusFor(err)
	f.WriteError(w, status, code, err)
}

// WriteError emits the uniform error envelope
// {"error":{"code","message","retry_after_ms"}} for status.
func (f *Frontend) WriteError(w http.ResponseWriter, status int, code string, err error) {
	f.writeEnvelope(w, status, apitypes.ErrorBody{Code: code, Message: err.Error()}, 0)
}

// writeEnvelope writes body under status, bumping the matching failure
// counter. 429 and 503 always carry a backoff hint (header and JSON
// twin): retryAfter, or the default when it is zero.
func (f *Frontend) writeEnvelope(w http.ResponseWriter, status int, body apitypes.ErrorBody, retryAfter time.Duration) {
	if retryAfter <= 0 && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) {
		retryAfter = RetryAfterSeconds * time.Second
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
		body.RetryAfterMs = retryAfter.Milliseconds()
	}
	switch status {
	case http.StatusTooManyRequests:
		count(f.metrics.Rejected)
	case http.StatusGatewayTimeout:
		count(f.metrics.Timeouts)
	case http.StatusBadRequest, http.StatusNotFound, 499, http.StatusServiceUnavailable,
		http.StatusRequestEntityTooLarge, http.StatusConflict:
		// Client-side mistakes, hangups, drains, over-quota uploads and
		// in-use deletes are not server failures.
	default:
		count(f.metrics.Errors)
	}
	WriteJSON(w, status, apitypes.ErrorResponse{Error: body})
}

// countError bumps the counter matching err's failure class (the
// per-cell accounting inside a sweep stream, where no status is
// written).
func (f *Frontend) countError(err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		count(f.metrics.Rejected)
	case errors.Is(err, context.DeadlineExceeded):
		count(f.metrics.Timeouts)
	case errors.Is(err, context.Canceled):
	default:
		count(f.metrics.Errors)
	}
}

// decodeRequest is the one request decoder both front ends use. It
// decodes one JSON value from r into v with the hostile-input posture
// of the trace-file parser: the read is capped at
// apitypes.MaxRequestBytes, unknown fields are rejected (a misspelled
// parameter is a client bug, not a silent default), and trailing
// non-whitespace after the value is an error.
func decodeRequest(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, apitypes.MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decoding request: %w", err)
	}
	if dec.More() {
		return errors.New("serve: trailing data after request body")
	}
	return nil
}

// DecodeSimRequest parses a /v1/sim body. Exposed (with
// DecodeSweepRequest and DecodeJobRequest) for the fuzz target;
// handlers go through it.
func DecodeSimRequest(r io.Reader) (apitypes.SimRequest, error) {
	var req apitypes.SimRequest
	err := decodeRequest(r, &req)
	return req, err
}

// DecodeSweepRequest parses a /v1/sweep body.
func DecodeSweepRequest(r io.Reader) (apitypes.SweepRequest, error) {
	var req apitypes.SweepRequest
	err := decodeRequest(r, &req)
	return req, err
}

// DecodeJobRequest parses a POST /v1/jobs body.
func DecodeJobRequest(r io.Reader) (apitypes.JobRequest, error) {
	var req apitypes.JobRequest
	err := decodeRequest(r, &req)
	return req, err
}

// WriteJSON writes v as a JSON response with status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// cellName is the cell label telemetry frames carry: the request's own
// workload/mode spelling (not the runner's normalized mode name), so
// watchers demultiplex on the strings they asked for.
func cellName(cell Cell) string { return cell.Ref.Workload + "/" + cell.Ref.Mode }

func shortKey(key string) string {
	if len(key) > 16 {
		return key[:16]
	}
	return key
}

func millisSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
