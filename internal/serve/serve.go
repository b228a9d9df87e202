package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/jobs"
	"repro/internal/serve/rooms"
	"repro/internal/tracestore"
)

// Options configures a Server.
type Options struct {
	FrontendOptions
	// Workers bounds concurrently executing simulations (0 = GOMAXPROCS).
	Workers int
	// Queue bounds interactive requests waiting for a worker; beyond it
	// new requests get 429 + Retry-After (0 = 4×Workers).
	Queue int
	// CacheDir enables the shared on-disk result cache ("" disables it).
	CacheDir string
	// JobsDir enables the durable async job queue (POST /v1/jobs …),
	// persisting the job WAL under this directory ("" disables jobs; the
	// job endpoints then answer 404 not_found).
	JobsDir string
	// JobTTL is how long finished jobs are retained before GC
	// (0 = 1h).
	JobTTL time.Duration
	// JobWorkers bounds concurrently running jobs (0 = 2). Cells inside
	// a job still pass through admission control, so total simulation
	// concurrency never exceeds Workers.
	JobWorkers int
	// WatchSampleInterval is the sampling interval forced onto watch:true
	// requests that did not set one — live telemetry requires sampling
	// (0 = 50000 cycles).
	WatchSampleInterval uint64
	// RoomBuffer is the per-watcher frame buffer; a watcher this far
	// behind a room's broadcast is evicted (0 = the rooms default, 256).
	RoomBuffer int
	// RoomHistory bounds each room's replay history in frames
	// (0 = 65536).
	RoomHistory int
	// RoomTTL is how long a closed room stays replayable (0 = 2m).
	RoomTTL time.Duration
	// TraceDir enables the content-addressed trace store (POST /v1/traces
	// and trace:<digest> workloads; "" disables them — the trace routes
	// then answer 404).
	TraceDir string
	// TraceQuotaBytes caps the store's total blob bytes; over the cap the
	// least-recently-used unreferenced trace is evicted to make room
	// (0 = unbounded).
	TraceQuotaBytes int64
	// TraceTTL expires traces unused for this long (0 = keep forever).
	TraceTTL time.Duration
}

func (o Options) withDefaults() Options {
	o.FrontendOptions = o.FrontendOptions.WithDefaults()
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Queue <= 0 {
		o.Queue = 4 * o.Workers
	}
	if o.WatchSampleInterval == 0 {
		o.WatchSampleInterval = 50000
	}
	return o
}

// Server is the local executor behind imtd's Frontend: it serves
// simulation cells from the result cache, coalesces identical
// in-flight cells, admits the rest into a bounded worker pool and runs
// them on the runner engine. Construct with New, obtain the handler
// with Handler (httptest-friendly), or bind a socket with Listen for
// the daemon shape.
type Server struct {
	*Frontend
	opts     Options
	eng      *runner.Engine
	cache    *runner.Cache
	adm      *admission
	flights  flightGroup
	jobStore *jobs.Store
	jobs     *jobs.Manager
	traces   *tracestore.Store

	// jobRooms maps job ID → telemetry room for watch:true jobs. The
	// mapping is in-memory like the rooms themselves: resumed jobs get a
	// fresh room on their first post-restart cell.
	jobRoomsMu sync.Mutex
	jobRooms   map[string]*rooms.Room

	mCacheHits *obs.Counter
	mCoalesce  *obs.Counter
	mQueueWait *obs.Histogram

	// simHook, when non-nil, replaces the engine run inside execute —
	// admission and coalescing still apply. Test seam: lets the suite
	// hold a slot open or fail deterministically without timing a real
	// simulation.
	simHook func(ctx context.Context, cell Cell) outcome
}

// New builds a server. The engine, admission controller and metrics are
// shared across every request the server will handle. With
// Options.JobsDir set, the job WAL is replayed and crash-interrupted
// jobs resume immediately; a corrupt WAL is the only error path.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{opts: opts}
	s.eng = runner.New(opts.Config, s.engineOptions())
	if opts.CacheDir != "" {
		s.cache = runner.OpenCache(opts.CacheDir)
	}
	reg := opts.Obs.Metrics
	s.adm = newAdmission(opts.Workers, opts.Queue, reg)
	var m FrontendMetrics
	if reg != nil {
		m = FrontendMetrics{
			Requests: reg.Counter("serve_requests_total", "API requests received"),
			Cells:    reg.Counter("serve_cells_total", "cells served successfully"),
			Rejected: reg.Counter("serve_rejected_total", "requests rejected with 429 (queue full)"),
			Timeouts: reg.Counter("serve_timeouts_total", "requests that exceeded their deadline (504)"),
			Errors:   reg.Counter("serve_errors_total", "requests that failed with 500"),
			Latency:  reg.HistogramVec("serve_request_seconds", "route", "end-to-end request latency by route", obs.DurationBuckets),
		}
		s.mCacheHits = reg.Counter("serve_cache_hits_total", "cells answered from the result cache")
		s.mCoalesce = reg.Counter("serve_coalesce_hits_total", "requests that shared another request's in-flight simulation")
		s.mQueueWait = reg.Histogram("serve_queue_wait_seconds", "time spent waiting for an execution slot", obs.DurationBuckets)
	}
	s.Frontend = NewFrontend(opts.FrontendOptions, s, m, obs.NewManifest("imtd", struct {
		Workers, Queue int
		CacheDir       string
		JobsDir        string
		Config         gpusim.Config
	}{opts.Workers, opts.Queue, opts.CacheDir, opts.JobsDir, opts.Config}))
	// Hosting rooms is what lets the Frontend accept watch requests.
	s.rooms = rooms.NewRegistry(reg, rooms.Options{
		Buffer:  opts.RoomBuffer,
		History: opts.RoomHistory,
		TTL:     opts.RoomTTL,
	})
	s.watchSample = opts.WatchSampleInterval
	s.jobRooms = make(map[string]*rooms.Room)
	if opts.JobsDir != "" {
		st, err := jobs.Open(opts.JobsDir)
		if err != nil {
			return nil, err
		}
		s.jobStore = st
		s.jobs = jobs.NewManager(st, jobs.ManagerOptions{
			Run:          s.runJobCell,
			JobWorkers:   opts.JobWorkers,
			CellParallel: opts.Workers,
			TTL:          opts.JobTTL,
			Registry:     reg,
		})
		if err := s.jobs.Start(); err != nil {
			return nil, err
		}
	}
	if opts.TraceDir != "" {
		// Opened after the job store so the InUse guard can see resumed
		// jobs: a trace referenced by a queued or running job is never
		// evicted or deleted out from under it.
		ts, err := tracestore.Open(tracestore.Options{
			Dir:        opts.TraceDir,
			QuotaBytes: opts.TraceQuotaBytes,
			TTL:        opts.TraceTTL,
			InUse:      s.traceInUse,
			Registry:   reg,
		})
		if err != nil {
			return nil, err
		}
		s.traces = ts
	}
	return s, nil
}

// traceInUse reports whether any non-terminal job references the trace:
// the store's eviction/delete guard. Jobs name trace cells as
// "trace:<digest>" in their sweep's Workloads or expanded Cells.
func (s *Server) traceInUse(digest string) bool {
	if s.jobStore == nil {
		return false
	}
	name := "trace:" + digest
	for _, info := range s.jobStore.List("") {
		if info.State.Terminal() {
			continue
		}
		for _, w := range info.Sweep.Workloads {
			if w == name {
				return true
			}
		}
		for _, ref := range info.Sweep.Cells {
			if ref.Workload == name {
				return true
			}
		}
	}
	return false
}

// engineOptions: the engine runs one job per call under serve's own
// admission control, so its internal worker bound is per-call (1 job =
// 1 worker) and concurrency is governed entirely by the admission
// slots.
func (s *Server) engineOptions() runner.Options {
	return runner.Options{Workers: 1, CacheDir: s.opts.CacheDir, Obs: s.opts.Obs}
}

// Handler returns the server's HTTP handler: the Frontend's shared
// routes (POST /v1/sim, POST /v1/sweep, GET /v1/workloads and the
// debug mux) plus imtd's own:
//
//	POST   /v1/jobs             durable job submit → JobInfo (202)
//	GET    /v1/jobs             job listing (?tenant= filters)
//	GET    /v1/jobs/{id}        job poll → JobInfo
//	GET    /v1/jobs/{id}/stream NDJSON JobFrame stream (?from=N resumes)
//	DELETE /v1/jobs/{id}        cancel → JobInfo
//	POST   /v1/traces           trace upload → TraceUploadResponse
//	GET    /v1/traces[/{d}]     trace listing / stat (?raw=1 streams)
//	DELETE /v1/traces/{d}       trace delete
//	GET    /v1/watch/{room}     SSE telemetry stream (?from=N resumes)
//	GET    /v1/statsz           StatsSnapshot (activity counters)
//	GET    /v1/healthz          200 ok / 503 draining
func (s *Server) Handler() http.Handler {
	mux := s.Mux()
	if s.jobs != nil {
		mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
		mux.HandleFunc("GET /v1/jobs", s.handleJobList)
		mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
		mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
		mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	} else {
		off := s.Unserved(apitypes.CodeNotFound, "serve: job queue disabled (start the daemon with -jobs-dir)")
		mux.HandleFunc("/v1/jobs", off)
		mux.HandleFunc("/v1/jobs/", off)
	}
	if s.traces != nil {
		mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
		mux.HandleFunc("GET /v1/traces", s.handleTraceList)
		mux.HandleFunc("GET /v1/traces/{digest}", s.handleTraceGet)
		mux.HandleFunc("DELETE /v1/traces/{digest}", s.handleTraceDelete)
	} else {
		// trace_not_found, so clients see one code for "this shard
		// cannot serve this trace" whether the store is absent or the
		// blob is.
		off := s.Unserved(apitypes.CodeTraceNotFound, "serve: trace store disabled (start the daemon with -trace-dir)")
		mux.HandleFunc("/v1/traces", off)
		mux.HandleFunc("/v1/traces/", off)
	}
	mux.HandleFunc("GET /v1/watch/{room}", s.handleWatch)
	mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// Check is the trace-store pre-check: a trace cell must name a blob
// this daemon holds, recorded for no more SMs than the machine has.
func (s *Server) Check(cell Cell) error {
	if cell.Digest == "" {
		return nil
	}
	if s.traces == nil {
		return fmt.Errorf("%w: trace store disabled (start the daemon with -trace-dir)", tracestore.ErrNotFound)
	}
	info, err := s.traces.Stat(cell.Digest)
	if err != nil {
		return err
	}
	if info.NumSMs > s.opts.Config.NumSMs {
		return fmt.Errorf("serve: trace %s… carries %d SM streams, machine has %d SMs",
			cell.Digest[:12], info.NumSMs, s.opts.Config.NumSMs)
	}
	return nil
}

// Sim runs one interactive cell: impatient admission, so a full queue
// answers 429 at once.
func (s *Server) Sim(ctx context.Context, _ apitypes.SimRequest, cell Cell, sink func(runner.LiveSample)) (apitypes.CellResult, error) {
	return s.runCell(ctx, cell, false, sink)
}

// Sweep runs every cell through the same coalesce+admission path as a
// /v1/sim request, with patient admission: the sweep's concurrency
// (Workers cells at a time) is its flow control, so its cells wait for
// slots instead of tripping the interactive queue bound. Results are
// emitted in completion order.
func (s *Server) Sweep(ctx context.Context, _ apitypes.SweepRequest, cells []Cell, sinkFor func(Cell) func(runner.LiveSample), emit func(apitypes.CellResult, error)) {
	type finished struct {
		res apitypes.CellResult
		err error
	}
	done := make(chan finished)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(s.opts.Workers, len(cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				var sink func(runner.LiveSample)
				if sinkFor != nil {
					sink = sinkFor(cells[i])
				}
				res, err := s.runCell(ctx, cells[i], true, sink)
				done <- finished{res, err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	for d := range done {
		emit(d.res, d.err)
	}
}

// runCell executes one cell through the full serving path: cache fast
// path, then singleflight coalescing on the cell's content key, then
// admission, then the engine. It never writes HTTP — the Frontend maps
// the returned error to a status. sink, when non-nil, receives the
// run's live telemetry samples; cached and coalesced-follower cells
// emit none (nothing is re-simulated — the watcher sees their cell-done
// frame only).
func (s *Server) runCell(ctx context.Context, cell Cell, patient bool, sink func(runner.LiveSample)) (apitypes.CellResult, error) {
	t0 := time.Now()
	res := apitypes.CellResult{Workload: cell.Ref.Workload, Mode: cell.Ref.Mode, CacheKey: shortKey(cell.Key)}

	// Fast path: a warm cell costs one file read, no queue slot.
	if s.cache != nil {
		if st, ok := s.cache.Lookup(cell.Key); ok {
			count(s.mCacheHits)
			res.Cached = true
			res.Stats = &st
			res.ElapsedMs = millisSince(t0)
			return res, nil
		}
	}

	out, shared, err := s.flights.do(ctx, cell.Key, func() outcome {
		return s.execute(ctx, cell, patient, sink)
	})
	res.Coalesced = shared
	if shared {
		count(s.mCoalesce)
	}
	res.ElapsedMs = millisSince(t0)
	if err != nil {
		// The follower's own deadline expired while waiting on the
		// leader; the leader keeps running for everyone else.
		return res, err
	}
	if out.err != nil {
		return res, out.err
	}
	res.Cached = out.cached
	if out.cached {
		count(s.mCacheHits)
	}
	st := out.stats
	res.Stats = &st
	return res, nil
}

// execute is the singleflight leader's body: acquire an execution slot
// under the request's context, run the engine, and normalize the
// result.
func (s *Server) execute(ctx context.Context, cell Cell, patient bool, sink func(runner.LiveSample)) outcome {
	tQueue := time.Now()
	release, err := s.adm.acquire(ctx, patient)
	if s.mQueueWait != nil {
		s.mQueueWait.Observe(time.Since(tQueue).Seconds())
	}
	if err != nil {
		return outcome{err: err}
	}
	defer release()

	if s.simHook != nil {
		return s.simHook(ctx, cell)
	}
	job := cell.Job
	if cell.Digest != "" {
		// Pin the blob for exactly the duration of the run. A digest that
		// resolved but is gone now was evicted in between; the typed
		// not-found propagates so a gateway can re-upload and retry.
		rep, err := s.traces.OpenReplay(cell.Digest)
		if err != nil {
			return outcome{err: err}
		}
		defer rep.Close()
		job.Traces = rep.Traces
	}
	eng := s.eng
	if cell.SampleInterval != 0 || sink != nil {
		// Sampling changes the machine config (and the cache key), so a
		// sampled cell runs on an ephemeral engine over the same hub and
		// cache directory; the shared registry metrics still accumulate.
		// A live sink rides the same path: it is per-request state, so it
		// must never be installed on the shared engine.
		eopts := s.engineOptions()
		eopts.OnSample = sink
		eng = runner.New(s.cellConfig(cell.SampleInterval), eopts)
	}
	results, runErr := eng.Run(ctx, []runner.Job{job})
	r := results[0]
	if r.Err == nil && runErr != nil {
		r.Err = runErr
	}
	if r.Err != nil {
		return outcome{err: r.Err}
	}
	// WithoutHost: responses are deterministic functions of the cell,
	// identical whether served fresh, coalesced or from cache.
	return outcome{stats: r.Stats.WithoutHost(), cached: r.Cached}
}

// roomSink adapts a telemetry room into a runner live-sample sink for
// one cell.
func roomSink(room *rooms.Room, cell string) func(runner.LiveSample) {
	return func(ls runner.LiveSample) {
		smp := ls.Sample
		room.Publish(apitypes.WatchFrame{
			Cell:    cell,
			Key:     shortKey(ls.Key),
			CellSeq: ls.Seq,
			Sample:  &smp,
		})
	}
}

// publishCellDone emits the lifecycle frame that ends a cell's series
// (the only frame a cached or coalesced cell produces).
func publishCellDone(room *rooms.Room, res apitypes.CellResult, err error) {
	f := apitypes.WatchFrame{
		Cell:    res.Workload + "/" + res.Mode,
		Key:     res.CacheKey,
		CellSeq: -1,
		Event:   apitypes.WatchEventCellDone,
		Cached:  res.Cached,
		Error:   res.Error,
	}
	if err != nil {
		f.Error = err.Error()
	}
	room.Publish(f)
}

// Stats returns the server's activity snapshot (the /v1/statsz body).
func (s *Server) Stats() apitypes.StatsSnapshot {
	snap := s.Snapshot()
	if m := s.metrics; m.Requests != nil {
		snap.Requests = m.Requests.Value()
		snap.Cells = m.Cells.Value()
		snap.CacheHits = s.mCacheHits.Value()
		snap.CoalesceHits = s.mCoalesce.Value()
		snap.Rejected = m.Rejected.Value()
		snap.Timeouts = m.Timeouts.Value()
		snap.Errors = m.Errors.Value()
	}
	if s.adm.inflight != nil {
		snap.Inflight = int64(s.adm.inflight.Value())
	}
	snap.QueueDepth = s.adm.waiting.Load()
	if s.jobs != nil {
		js := s.jobs.Stats()
		snap.Jobs = &js
	}
	if s.rooms != nil {
		rs := s.rooms.Stats()
		snap.Rooms = &rs
	}
	if s.traces != nil {
		ts := s.traces.Stats()
		snap.Traces = &apitypes.TraceStoreStats{
			Blobs:      ts.Blobs,
			Bytes:      ts.Bytes,
			QuotaBytes: ts.QuotaBytes,
			Puts:       ts.Puts,
			PutHits:    ts.PutHits,
			Rejected:   ts.Rejected,
			Evictions:  ts.Evictions,
			Deletes:    ts.Deletes,
		}
	}
	return snap
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Manifest pins this server run: the construction-time identity plus
// current wall time, activity counters, metrics snapshot and the
// per-cell log. Call at drain time for the run manifest.
func (s *Server) Manifest() obs.Manifest {
	m := s.Frontend.Manifest()
	stats := s.Stats()
	m.Counters = map[string]uint64{
		"requests":      stats.Requests,
		"cells":         stats.Cells,
		"cache_hits":    stats.CacheHits,
		"coalesce_hits": stats.CoalesceHits,
		"rejected":      stats.Rejected,
		"timeouts":      stats.Timeouts,
		"errors":        stats.Errors,
	}
	if stats.Jobs != nil {
		m.Counters["jobs_submitted"] = stats.Jobs.Submitted
		m.Counters["jobs_done"] = stats.Jobs.Done
		m.Counters["jobs_failed"] = stats.Jobs.Failed
		m.Counters["jobs_canceled"] = stats.Jobs.Canceled
		m.Counters["jobs_resumed"] = stats.Jobs.ResumedJobs
		m.Counters["jobs_cells"] = stats.Jobs.Cells
		m.Counters["jobs_cells_resumed"] = stats.Jobs.CellsResumed
	}
	m.Cells = s.opts.Obs.Cells()
	return m
}
