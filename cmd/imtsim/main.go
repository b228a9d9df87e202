// Command imtsim runs the GPU memory-hierarchy simulator on one catalog
// workload (or a whole suite) under a chosen tagging mode and prints the
// performance statistics. Sweeps fan out across a worker pool and can be
// cached on disk, so a repeated run of an unchanged (workload, mode)
// cell is free.
//
// Usage:
//
//	imtsim -list
//	imtsim -workload stream-triad-48MB -mode carve-low
//	imtsim -suite STREAM -mode carve-high -j 8 -cache-dir .sweep-cache
//	imtsim -suite STREAM -mode carve-low -metrics-out m.prom -trace-out sweep.trace.json
//	imtsim -workload sla-spmv13 -mode carve-low -sample-interval 50000
//	imtsim -workload sla-spmv13 -record spmv.trc
//	imtsim -workload sla-spmv13 -record spmv.trc -upload http://localhost:8080
//	imtsim -replay spmv.trc -mode carve-low
//
// Modes: none, imt, ecc-steal, carve-out, carve-low, carve-high,
// carve-mte, bounds-table (alias: bounds). Every run also simulates the
// untagged baseline and reports the slowdown. -record captures the
// workload's warp-op stream to a trace file; -replay simulates a
// previously recorded trace instead of a generator.
//
// Observability: -metrics-out writes the engine's metrics registry
// (Prometheus text, or JSON with a .json extension); -trace-out writes
// a Chrome trace-event JSON — one complete span per sweep cell plus
// engine counter tracks — loadable in Perfetto (ui.perfetto.dev);
// -sample-interval N records phase telemetry inside the simulator every
// N cycles (peak bandwidth, hit-rate phases); -debug-addr serves
// expvar, pprof and /metrics over HTTP for the duration of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/client"
	"repro/internal/workload"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list catalog workloads and exit")
		name     = flag.String("workload", "", "workload name to simulate")
		suite    = flag.String("suite", "", "simulate every workload of a suite (see -list)")
		mode     = flag.String("mode", "carve-low", "tagging mode: "+strings.Join(gpusim.TagModeNames(), "|"))
		record   = flag.String("record", "", "record the selected workload's trace to this file and exit")
		upload   = flag.String("upload", "", "after -record, upload the trace to this imtd/imtgw URL and print its digest")
		replay   = flag.String("replay", "", "simulate a recorded trace file instead of a catalog workload")
		workers  = flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache-dir", "", "content-addressed result cache directory (\"\" disables caching)")

		metricsOut = flag.String("metrics-out", "", "write engine metrics to this file (.json → JSON, else Prometheus text)")
		traceOut   = flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON of the sweep to this file")
		sampleIv   = flag.Uint64("sample-interval", 0, "simulator phase-telemetry interval in cycles (0 disables)")
		debugAddr  = flag.String("debug-addr", "", "serve expvar, pprof and /metrics on this address (e.g. :6060)")
	)
	flag.Parse()

	if *list {
		for _, w := range workload.Catalog() {
			fmt.Printf("%3d  %-24s %-8s %-12v footprint=%dMB ops/SM=%d compute=%d\n",
				w.ID, w.Name, w.Suite, w.Pattern, w.FootprintBytes>>20, w.OpsPerSM, w.ComputePerOp)
		}
		return
	}

	tagMode, carve, err := gpusim.ParseTagMode(*mode)
	if err != nil {
		fatal(err)
	}

	cfg := gpusim.DefaultConfig()
	cfg.SampleInterval = *sampleIv

	run := sweeper{
		cfg:      cfg,
		hub:      obs.NewHub(),
		workers:  *workers,
		cacheDir: *cacheDir,
	}
	if *debugAddr != "" {
		addr, stop, err := obs.StartDebugServer(*debugAddr, run.hub.Metrics)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "debug server: http://%s/debug/pprof/ (metrics at /metrics)\n", addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *replay != "" {
		replayTrace(ctx, run, *replay, *mode, tagMode, carve)
		run.writeOutputs(*metricsOut, *traceOut)
		return
	}

	var selected []workload.Workload
	switch {
	case *name != "":
		for _, w := range workload.Catalog() {
			if w.Name == *name {
				selected = append(selected, w)
			}
		}
		if len(selected) == 0 {
			fatal(fmt.Errorf("no workload named %q (try -list)", *name))
		}
	case *suite != "":
		selected = workload.BySuite(*suite)
		if len(selected) == 0 {
			fatal(fmt.Errorf("no suite named %q (valid: %s)", *suite, strings.Join(workload.Suites(), ", ")))
		}
	default:
		fatal(fmt.Errorf("need -workload, -suite, -replay or -list"))
	}

	if *record != "" {
		if len(selected) != 1 {
			fatal(fmt.Errorf("-record needs exactly one workload, got %d", len(selected)))
		}
		f, err := os.Create(*record)
		if err != nil {
			fatal(err)
		}
		if err := gpusim.WriteTraces(f, selected[0].Traces(cfg.NumSMs)); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %s to %s\n", selected[0].Name, *record)
		if *upload != "" {
			up, err := client.New(*upload).UploadTraceFile(ctx, *record)
			if err != nil {
				fatal(err)
			}
			verb := "stored as"
			if !up.Created {
				verb = "already stored as" // content-address hit
			}
			fmt.Printf("uploaded to %s: %s trace:%s (%d bytes)\n", *upload, verb, up.Digest, up.Bytes)
		}
		return
	}
	if *upload != "" {
		fatal(fmt.Errorf("-upload requires -record"))
	}

	// Two cells per workload — baseline and the requested mode — fanned
	// across the worker pool with deterministic result ordering.
	jobs := make([]runner.Job, 0, 2*len(selected))
	for _, w := range selected {
		jobs = append(jobs,
			runner.Job{Workload: w, Mode: gpusim.ModeNone},
			runner.Job{Workload: w, Mode: tagMode, Carve: carve},
		)
	}
	results, counters := run.sweep(ctx, jobs, len(selected) > 1)
	failed := 0
	for i, w := range selected {
		base, tagged := results[2*i], results[2*i+1]
		if err := firstErr(base, tagged); err != nil {
			fmt.Printf("%-24s %-10s FAILED: %v\n\n", w.Name, *mode, err)
			failed++
			continue
		}
		report(w.Name, *mode, base.Stats, tagged.Stats, cfg)
	}
	if len(selected) > 1 {
		fmt.Printf("sweep: %d cells (%d cached, %d failed), %d simulator runs\n",
			len(jobs), counters.CacheHits, counters.Failed, counters.SimRuns)
	}
	run.writeOutputs(*metricsOut, *traceOut)
	if failed > 0 {
		os.Exit(1)
	}
}

// sweeper carries the machine configuration and observability hub every
// sweep of this invocation shares.
type sweeper struct {
	cfg      gpusim.Config
	hub      *obs.Hub
	workers  int
	cacheDir string
}

// sweep runs jobs on the engine, streaming a progress line to stderr for
// multi-workload runs.
func (s sweeper) sweep(ctx context.Context, jobs []runner.Job, progress bool) ([]runner.Result, runner.Counters) {
	opts := runner.Options{Workers: s.workers, CacheDir: s.cacheDir, Obs: s.hub}
	if progress {
		opts.Progress = runner.TerminalProgress(os.Stderr)
	}
	eng := runner.New(s.cfg, opts)
	results, err := eng.Run(ctx, jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr)
		fatal(err)
	}
	return results, eng.Counters()
}

// writeOutputs flushes the metrics registry and sweep trace to disk.
func (s sweeper) writeOutputs(metricsOut, traceOut string) {
	if metricsOut != "" {
		if err := s.hub.Metrics.WriteFile(metricsOut); err != nil {
			fatal(err)
		}
	}
	if traceOut != "" {
		if err := s.hub.Trace.WriteFile(traceOut); err != nil {
			fatal(err)
		}
	}
}

// replayTrace validates and indexes a recorded trace once, exactly as
// the trace store does on upload, then drives both the baseline and the
// tagged run from fresh streams over the open file: nothing is
// materialized, so replay memory stays bounded whatever the file size.
func replayTrace(ctx context.Context, run sweeper, path, modeName string, tagMode gpusim.TagMode, carve gpusim.CarveOut) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	idx, err := gpusim.IndexTraceStream(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if idx.NumSMs > run.cfg.NumSMs {
		fatal(fmt.Errorf("trace has %d SMs but the machine only has %d", idx.NumSMs, run.cfg.NumSMs))
	}
	// Trace streams occupy the first SMs; the rest idle.
	src := func(numSMs int) []gpusim.Trace {
		out := make([]gpusim.Trace, numSMs)
		copy(out, gpusim.OpenTraceAt(f, idx))
		return out
	}
	// The cache key for replay cells is the trace file's identity plus
	// its modification time, which is invalidated by re-recording.
	key := ""
	if st, err := f.Stat(); err == nil {
		key = fmt.Sprintf("replay:%s:%d:%d", path, st.Size(), st.ModTime().UnixNano())
	}
	jobs := []runner.Job{
		{Mode: gpusim.ModeNone, Traces: src, Key: key},
		{Mode: tagMode, Carve: carve, Traces: src, Key: key},
	}
	results, _ := run.sweep(ctx, jobs, false)
	if err := firstErr(results...); err != nil {
		fatal(err)
	}
	report(path, modeName, results[0].Stats, results[1].Stats, run.cfg)
}

func firstErr(results ...runner.Result) error {
	return runner.FirstError(results)
}

func report(name, mode string, base, tagged gpusim.Stats, cfg gpusim.Config) {
	// WithoutHost: stdout is contract-deterministic (-j1 ≡ -j8, replay ≡
	// replay); host-side ns/op varies run to run and stays off it.
	base, tagged = base.WithoutHost(), tagged.WithoutHost()
	fmt.Printf("%-24s %-10s\n", name, mode)
	fmt.Printf("  baseline: %v\n", base)
	fmt.Printf("  tagged:   %v\n", tagged)
	fmt.Printf("  slowdown: %.2f%%  read bloat: %.2f%%  baseline BW util: %.1f%%\n",
		100*gpusim.Slowdown(base, tagged), 100*tagged.ReadBloat(),
		100*base.BandwidthUtilization(cfg))
	if len(tagged.Samples) > 0 {
		fmt.Printf("  phases:   %d windows, peak BW util %.1f%% (baseline peak %.1f%%), bw-bound(≥70%%) %.0f%% of cycles\n",
			len(tagged.Samples), 100*tagged.PeakBandwidthUtil(), 100*base.PeakBandwidthUtil(),
			100*tagged.BandwidthBoundFraction(0.7))
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imtsim:", err)
	os.Exit(1)
}
