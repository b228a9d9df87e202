package serve

import (
	"context"
	"fmt"
	"runtime"
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
// them on the runner engine. Construct with New, obtain the
// Frontend's handler with Handler (httptest-friendly), or bind a
// socket with Listen for the daemon shape.
type Server struct {
	*Frontend
	opts    Options
	eng     *runner.Engine
	adm     *admission
	flights flightGroup
	traces  *tracestore.Store

	mCacheHits *obs.Counter
	mCoalesce  *obs.Counter
	mQueueWait *obs.Histogram

	// simHook, when non-nil, replaces the engine call inside execute —
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
	// The engine resolves one cell per Cell call; how many run at once
	// is the admission controller's business, so its Workers is unused.
	hub := &obs.Hub{Metrics: obs.NewRegistry()}
	s := &Server{opts: opts, eng: runner.New(machine, runner.Options{CacheDir: opts.CacheDir, Obs: hub})}
	reg := hub.Metrics
	s.adm = newAdmission(opts.Workers, opts.Queue, reg)
	m := FrontendMetrics{
		Hub:      hub,
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
	s.Frontend = NewFrontend(opts.FrontendOptions, s, m, obs.NewManifest("imtd", struct {
		Workers, Queue int
		CacheDir       string
		JobsDir        string
		Config         gpusim.Config
	}{opts.Workers, opts.Queue, opts.CacheDir, opts.JobsDir, machine}))
	// Hosting rooms is what lets the Frontend accept watch requests.
	s.rooms = rooms.NewRegistry(reg, rooms.Options{
		Buffer:  opts.RoomBuffer,
		History: opts.RoomHistory,
		TTL:     opts.RoomTTL,
	})
	s.watchSample = opts.WatchSampleInterval
	if opts.JobsDir != "" {
		st, err := jobs.Open(opts.JobsDir)
		if err != nil {
			return nil, err
		}
		s.jobs = jobs.NewManager(st, jobs.ManagerOptions{
			Run:        s.runJob,
			JobWorkers: opts.JobWorkers,
			TTL:        opts.JobTTL,
			Registry:   reg,
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

// Options returns the server's settings with every default resolved.
func (s *Server) Options() Options { return s.opts }

// traceInUse reports whether any non-terminal job references the trace:
// the store's eviction/delete guard. Jobs name trace cells as
// "trace:<digest>" in their sweep's Workloads or expanded Cells.
func (s *Server) traceInUse(digest string) bool {
	if s.jobs == nil {
		return false
	}
	name := "trace:" + digest
	for _, info := range s.jobs.Store().List("") {
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

// Traces is the local trace store, nil without -trace-dir.
func (s *Server) Traces() TraceStore {
	if s.traces == nil {
		return nil
	}
	return localTraces{s.traces}
}

// Statsz is Stats, the /v1/statsz body.
func (s *Server) Statsz(context.Context) any { return s.Stats() }

// NotReady is always "": a running imtd can take work.
func (s *Server) NotReady() string { return "" }

// Check is the trace-store pre-check: a trace cell must name a blob
// this daemon holds, recorded for no more SMs than the machine has.
func (s *Server) Check(cell Cell) error {
	if cell.Digest == "" {
		return nil
	}
	if s.traces == nil {
		return errTracesDisabled
	}
	info, err := s.traces.Stat(cell.Digest)
	if err != nil {
		return err
	}
	if info.NumSMs > machine.NumSMs {
		return fmt.Errorf("serve: trace %s… carries %d SM streams, machine has %d SMs",
			cell.Digest[:12], info.NumSMs, machine.NumSMs)
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
// emitted in completion order. A job runs as one Sweep over its pending
// cells, so this pool is also what bounds a job's cells.
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
// frame only). A non-zero cell.Timeout bounds the cell on top of ctx.
func (s *Server) runCell(ctx context.Context, cell Cell, patient bool, sink func(runner.LiveSample)) (apitypes.CellResult, error) {
	t0 := time.Now()
	if cell.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cell.Timeout)
		defer cancel()
	}
	res := apitypes.CellResult{Workload: cell.Ref.Workload, Mode: cell.Ref.Mode, CacheKey: shortKey(cell.Key)}

	// Fast path: a warm cell costs one file read, no queue slot.
	if st, ok := s.eng.Lookup(cell.Key); ok {
		s.mCacheHits.Inc()
		res.Cached = true
		res.Stats = &st
		res.ElapsedMs = millisSince(t0)
		return res, nil
	}

	out, shared, err := s.flights.do(ctx, cell.Key, func() outcome {
		return s.execute(ctx, cell, patient, sink)
	})
	res.Coalesced = shared
	if shared {
		s.mCoalesce.Inc()
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
		s.mCacheHits.Inc()
	}
	st := out.stats
	res.Stats = &st
	return res, nil
}

// execute is the singleflight leader's body: acquire an execution slot
// under the request's context, resolve the cell on the engine (a cache
// hit stored since the fast path missed, or a simulation), and
// normalize the result. A simulation that finished is answered even if
// the deadline passed while its result was being stored.
func (s *Server) execute(ctx context.Context, cell Cell, patient bool, sink func(runner.LiveSample)) outcome {
	tQueue := time.Now()
	release, err := s.adm.acquire(ctx, patient)
	s.mQueueWait.Observe(time.Since(tQueue).Seconds())
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
	r := s.eng.Cell(ctx, job, sink)
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
	m := s.metrics
	snap.Requests = m.Requests.Value()
	snap.Cells = m.Cells.Value()
	snap.CacheHits = s.mCacheHits.Value()
	snap.CoalesceHits = s.mCoalesce.Value()
	snap.Rejected = m.Rejected.Value()
	snap.Timeouts = m.Timeouts.Value()
	snap.Errors = m.Errors.Value()
	snap.Inflight = int64(s.adm.inflight.Value())
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

// Manifest pins this server run: the construction-time identity plus
// current wall time, activity counters and metrics snapshot. It keeps
// no per-cell log — runner_cells_total counts the cells. Call at drain
// time for the run manifest.
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
	return m
}
