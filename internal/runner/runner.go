package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Job is one simulation cell: a workload under one tagging configuration.
// The engine's base gpusim.Config supplies the machine; the job's Mode,
// Carve and a nonzero SampleInterval are applied on top of it.
type Job struct {
	Workload workload.Workload
	Mode     gpusim.TagMode
	Carve    gpusim.CarveOut
	// MaxCycles caps the simulation (0 = gpusim's default guard).
	MaxCycles uint64
	// SampleInterval, when nonzero, replaces the machine config's phase
	// telemetry interval for this cell (and so enters its cache key).
	SampleInterval uint64

	// Traces optionally overrides the workload's trace generator (e.g. a
	// recorded trace replay); it is called once per simulation and must
	// return independent, rewound traces each call. Because a function
	// cannot be hashed, cells with a Traces override are cached only when
	// Key names their content.
	Traces func(numSMs int) []gpusim.Trace
	// Key is the cache identity of a Traces override (ignored otherwise).
	Key string
}

// Name identifies the cell in progress lines, trace spans and run
// manifests: "workload/mode", with the carve geometry appended when it
// disambiguates (carve-low and carve-high share a TagMode).
func (j Job) Name() string {
	base := j.Workload.Name
	if base == "" {
		if j.Key != "" {
			base = "trace"
		} else {
			base = "cell"
		}
	}
	mode := j.Mode.String()
	if j.Mode == gpusim.ModeCarveOut && j.Carve.TagBits > 0 {
		mode = fmt.Sprintf("%s(ts%d/tg%d)", mode, j.Carve.TagBits, j.Carve.GranuleBytes)
	}
	return base + "/" + mode
}

// Result is one completed (or failed) cell, in the same position as its
// job: Run's result slice is index-aligned with the job slice regardless
// of worker scheduling, so aggregation order is deterministic.
type Result struct {
	Job    Job
	Stats  gpusim.Stats
	Err    error // non-nil when the cell failed (config error, sim error, or panic)
	Cached bool
	// Duration is the cell's wall time on its worker (0 for cells that
	// never ran because the context was already cancelled).
	Duration time.Duration
}

// Progress is a snapshot delivered after every completed cell.
type Progress struct {
	Total, Done, Cached, Failed int
	// CellsPerSec is the overall completion rate since Run started.
	CellsPerSec float64
	// FailedNames lists failed cells (Job.Name) in completion order, so
	// progress lines can say *which* cells died, not just how many.
	FailedNames []string
}

// ETA estimates the remaining wall time from the completion rate so
// far; 0 when unknown (nothing done yet) or when the run is complete.
func (p Progress) ETA() time.Duration {
	if p.CellsPerSec <= 0 || p.Done >= p.Total {
		return 0
	}
	return time.Duration(float64(p.Total-p.Done) / p.CellsPerSec * float64(time.Second))
}

// Counters aggregates engine activity across Run calls. SimRuns counts
// actual gpusim.Sim.Run invocations — on a fully warm cache it stays 0.
type Counters struct {
	SimRuns     uint64
	CacheHits   uint64
	CacheMisses uint64
	Failed      uint64
	Panics      uint64
}

// LiveSample is one phase-telemetry window emitted by a cell while it
// is still running: the in-flight twin of the Stats.Samples series a
// finished cell returns. Cell and Key identify the emitting cell (the
// same identities the rest of the stack uses — Job.Name for humans,
// the content-addressed cache key for machines), and Seq numbers the
// samples of one cell's run 0, 1, 2, … so downstream fan-out can
// detect gaps per cell independently of any global ordering.
type LiveSample struct {
	// Cell is the emitting cell's Job.Name() ("workload/mode").
	Cell string
	// Key is the cell's full cache key, or "" for an uncacheable cell
	// (a Traces override without a Key).
	Key string
	// Seq is the 0-based index of this sample within the cell's run.
	Seq int
	// Sample is the telemetry window, exactly as recorded into
	// Stats.Samples.
	Sample gpusim.Sample
}

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// CacheDir enables the on-disk result cache ("" disables caching).
	CacheDir string
	// Progress, when non-nil, is called (serialized) after every cell.
	Progress func(Progress)
	// Obs, when non-nil, receives engine telemetry: counters and a cell
	// duration histogram in Obs.Metrics, one complete span per cell plus
	// engine counter tracks in Obs.Trace, and the per-cell log consumed
	// by run manifests.
	Obs *obs.Hub
}

// Engine runs simulation cells over a fixed machine configuration.
type Engine struct {
	cfg   gpusim.Config
	opts  Options
	cache *Cache

	simRuns     atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	failed      atomic.Uint64
	panics      atomic.Uint64

	// Registry metrics mirroring the atomic counters (nil without Obs).
	mCells, mHits, mMisses, mSimRuns, mFailed, mPanics *obs.Counter
	mCellSeconds                                       *obs.Histogram
	mCellNsPerOp                                       *obs.Histogram
}

// nsPerOpBuckets spans the observed host cost per simulated warp op
// (hundreds of ns for cache-resident micro workloads up to tens of µs
// for bandwidth-bound traces), exponential base ~2.5.
var nsPerOpBuckets = []float64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

// New builds an engine for the machine configuration. Mode and Carve in
// cfg are ignored — each job supplies its own (see CacheKeyFor).
func New(cfg gpusim.Config, opts Options) *Engine {
	e := &Engine{cfg: cfg, opts: opts}
	if opts.CacheDir != "" {
		e.cache = OpenCache(opts.CacheDir)
	}
	if h := opts.Obs; h != nil && h.Metrics != nil {
		// Registered eagerly so the metric set is stable (and present in
		// manifests) even for runs whose cells all hit the cache.
		e.mCells = h.Metrics.Counter("runner_cells_total", "completed sweep cells")
		e.mHits = h.Metrics.Counter("runner_cache_hits_total", "cells resolved from the on-disk cache")
		e.mMisses = h.Metrics.Counter("runner_cache_misses_total", "cache lookups that missed")
		e.mSimRuns = h.Metrics.Counter("runner_sim_runs_total", "actual gpusim simulations executed")
		e.mFailed = h.Metrics.Counter("runner_cell_failures_total", "cells that ended in an error")
		e.mPanics = h.Metrics.Counter("runner_panics_total", "simulations recovered from a panic")
		e.mCellSeconds = h.Metrics.Histogram("runner_cell_seconds", "per-cell wall time", obs.DurationBuckets)
		e.mCellNsPerOp = h.Metrics.Histogram("runner_cell_ns_per_op", "host ns per simulated warp op (uncached cells)", nsPerOpBuckets)
	}
	return e
}

// Counters returns a snapshot of the engine's activity counters.
func (e *Engine) Counters() Counters {
	return Counters{
		SimRuns:     e.simRuns.Load(),
		CacheHits:   e.cacheHits.Load(),
		CacheMisses: e.cacheMisses.Load(),
		Failed:      e.failed.Load(),
		Panics:      e.panics.Load(),
	}
}

// Run executes all jobs and returns one result per job, index-aligned.
// Individual cell failures are reported in Result.Err (see FirstError);
// Run itself only errors when the context is cancelled, in which case
// cells that never ran carry the context's error.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}
	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		start = time.Now()
		mu    sync.Mutex // guards prog + the Progress callback
		prog  = Progress{Total: len(jobs)}
		idx   = make(chan int)
		wg    sync.WaitGroup
	)
	report := func(r Result) {
		mu.Lock()
		defer mu.Unlock()
		prog.Done++
		if r.Cached {
			prog.Cached++
		}
		if r.Err != nil {
			prog.Failed++
			prog.FailedNames = append(prog.FailedNames, r.Job.Name())
		}
		snap := prog
		if el := time.Since(start).Seconds(); el > 0 {
			snap.CellsPerSec = float64(prog.Done) / el
		}
		// Invoked under the lock so callbacks are truly serialized and
		// snapshots arrive in order (TerminalProgress keeps state).
		if cb := e.opts.Progress; cb != nil {
			cb(snap)
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			if h := e.opts.Obs; h != nil {
				h.Trace.SetThreadName(worker, fmt.Sprintf("worker %d", worker))
			}
			for i := range idx {
				results[i] = e.cell(ctx, jobs[i], nil, worker)
				report(results[i])
			}
		}(w)
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, ctx.Err()
}

// Cell resolves one job on the calling goroutine: from the cache when
// it holds the cell, else by simulating it and storing the result. It
// is the body of every Run cell (panic isolation, counters, obs
// recording), without Run's worker pool and progress tally, for callers
// such as a server that schedule cells themselves. sink, when non-nil,
// receives the cell's phase-telemetry samples live while it simulates
// (the gpusim.Config.OnSample hook, tagged with the cell's name and
// cache key); it fires only for a nonzero sampling interval, and a
// cached cell emits nothing. The sink runs on the simulation goroutine,
// so a slow sink slows its cell.
func (e *Engine) Cell(ctx context.Context, job Job, sink func(LiveSample)) Result {
	return e.cell(ctx, job, sink, 0)
}

// Lookup returns the cached stats for key without simulating or
// counting: the fast path a caller may try before Cell. It misses when
// the engine has no cache.
func (e *Engine) Lookup(key string) (gpusim.Stats, bool) {
	if e.cache == nil {
		return gpusim.Stats{}, false
	}
	return e.cache.Lookup(key)
}

// cell is Cell recorded on a trace thread (Run's worker index).
func (e *Engine) cell(ctx context.Context, job Job, sink func(LiveSample), worker int) Result {
	t0 := time.Now()
	res := Result{Job: job}
	if res.Err = ctx.Err(); res.Err == nil {
		res.Stats, res.Cached, res.Err = e.resolve(ctx, job, sink)
		res.Duration = time.Since(t0)
	}
	if res.Err != nil {
		e.failed.Add(1)
	}
	e.observe(res, worker, t0)
	return res
}

// observe emits one completed cell into the attached obs.Hub: a trace
// span on the worker's thread, registry metrics, an engine counter
// track sample, and the manifest cell log.
func (e *Engine) observe(r Result, worker int, started time.Time) {
	h := e.opts.Obs
	if h == nil {
		return
	}
	name := r.Job.Name()
	h.Trace.Span(name, "cell", worker, started, started.Add(r.Duration), map[string]any{
		"cached": r.Cached,
		"failed": r.Err != nil,
		"cycles": r.Stats.Cycles,
	})
	if e.mCells != nil {
		e.mCells.Inc()
		if r.Err != nil {
			e.mFailed.Inc()
		}
		e.mCellSeconds.Observe(r.Duration.Seconds())
		h.Trace.Counter("engine", map[string]float64{
			"done":   float64(e.mCells.Value()),
			"cached": float64(e.cacheHits.Load()),
			"failed": float64(e.failed.Load()),
		})
	}
	// Host telemetry describes a completed simulation: cached cells
	// carry none (the cache stores only deterministic Stats), and a
	// failed cell's partial run is not a cost per op.
	var nsPerOp, allocsPerOp float64
	if r.Err == nil {
		nsPerOp, allocsPerOp = r.Stats.HostNsPerOp, r.Stats.HostAllocsPerOp
	}
	if nsPerOp > 0 && e.mCellNsPerOp != nil {
		e.mCellNsPerOp.Observe(nsPerOp)
	}
	h.AddCell(obs.Cell{
		Name:        name,
		Cached:      r.Cached,
		Failed:      r.Err != nil,
		Millis:      float64(r.Duration) / float64(time.Millisecond),
		NsPerOp:     nsPerOp,
		AllocsPerOp: allocsPerOp,
	})
}

// resolve answers one cell from the cache or a fresh simulation, which
// it then stores.
func (e *Engine) resolve(ctx context.Context, job Job, sink func(LiveSample)) (gpusim.Stats, bool, error) {
	// The content identity exists whether or not a cache directory is
	// configured; the live-sample sink tags frames with it.
	key, cacheable := CacheKeyFor(e.cfg, job)
	cacheable = cacheable && e.cache != nil
	if cacheable {
		if st, ok := e.cache.Lookup(key); ok {
			e.cacheHits.Add(1)
			if e.mHits != nil {
				e.mHits.Inc()
			}
			return st, true, nil
		}
		e.cacheMisses.Add(1)
		if e.mMisses != nil {
			e.mMisses.Inc()
		}
	}
	st, err := e.simulate(ctx, job, key, sink)
	if err == nil && cacheable {
		e.cache.Store(key, st)
	}
	return st, false, err
}

// simulate runs one cell, converting panics into cell errors so a
// pathological (workload, mode) pair cannot take down the whole sweep.
// key is the cell's content identity ("" when it has none); it tags
// the live samples forwarded to sink.
func (e *Engine) simulate(ctx context.Context, job Job, key string, sink func(LiveSample)) (st gpusim.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.panics.Add(1)
			if e.mPanics != nil {
				e.mPanics.Inc()
			}
			err = fmt.Errorf("runner: %s/%s panicked: %v", job.Workload.Name, job.Mode, r)
		}
	}()
	cfg := cellConfig(e.cfg, job)
	if sink != nil {
		name := job.Name()
		seq := 0
		cfg.OnSample = func(smp gpusim.Sample) {
			sink(LiveSample{Cell: name, Key: key, Seq: seq, Sample: smp})
			seq++
		}
	}
	var traces []gpusim.Trace
	if job.Traces != nil {
		traces = job.Traces(cfg.NumSMs)
	} else {
		traces = job.Workload.Traces(cfg.NumSMs)
	}
	sim, err := gpusim.New(cfg, traces)
	if err != nil {
		return gpusim.Stats{}, fmt.Errorf("runner: %s/%s: %w", job.Workload.Name, job.Mode, err)
	}
	e.simRuns.Add(1)
	if e.mSimRuns != nil {
		e.mSimRuns.Inc()
	}
	st, err = sim.RunContext(ctx, job.MaxCycles)
	if err != nil {
		return st, fmt.Errorf("runner: %s/%s: %w", job.Workload.Name, job.Mode, err)
	}
	return st, nil
}

// FirstError returns the error of the first failed cell, if any — the
// aggregation-friendly reduction for sweeps that need every cell.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
