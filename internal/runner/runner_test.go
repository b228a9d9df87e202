package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/workload"
)

func tinyWorkload(seed int64, name string) workload.Workload {
	return workload.Workload{
		Name:           name,
		Suite:          "test",
		Pattern:        workload.PatternStream,
		FootprintBytes: 1 << 20,
		OpsPerSM:       200,
		WriteFrac:      0.3,
		Seed:           seed,
	}
}

func tinyJobs(n int) []Job {
	var jobs []Job
	for i := 0; i < n; i++ {
		w := tinyWorkload(int64(100+i), "tiny")
		jobs = append(jobs,
			Job{Workload: w, Mode: gpusim.ModeNone},
			Job{Workload: w, Mode: gpusim.ModeCarveOut, Carve: gpusim.CarveOutLow},
		)
	}
	return jobs
}

func statsOf(t *testing.T, results []Result) []gpusim.Stats {
	t.Helper()
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	out := make([]gpusim.Stats, len(results))
	for i, r := range results {
		// Host telemetry is nondeterministic (and zero on cached cells);
		// only the simulated-machine stats are comparable.
		out[i] = r.Stats.WithoutHost()
	}
	return out
}

func TestResultsDeterministicAcrossWorkers(t *testing.T) {
	jobs := tinyJobs(6)
	cfg := gpusim.DefaultConfig()
	r1, err := New(cfg, Options{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := New(cfg, Options{Workers: 8}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(statsOf(t, r1), statsOf(t, r8)) {
		t.Error("worker count changed aggregated stats; result ordering must be deterministic")
	}
}

func TestCacheHitMissAndInvalidation(t *testing.T) {
	jobs := tinyJobs(2)
	cfg := gpusim.DefaultConfig()
	dir := t.TempDir()

	cold := New(cfg, Options{Workers: 2, CacheDir: dir})
	coldRes, err := cold.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	c := cold.Counters()
	if int(c.SimRuns) != len(jobs) || int(c.CacheMisses) != len(jobs) || c.CacheHits != 0 {
		t.Fatalf("cold run counters: %+v", c)
	}

	warm := New(cfg, Options{Workers: 2, CacheDir: dir})
	warmRes, err := warm.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	c = warm.Counters()
	if c.SimRuns != 0 || int(c.CacheHits) != len(jobs) {
		t.Fatalf("warm run must not simulate: %+v", c)
	}
	for _, r := range warmRes {
		if !r.Cached {
			t.Fatalf("warm cell not marked cached: %+v", r.Job)
		}
		if r.Stats.HostNsPerOp != 0 || r.Stats.HostAllocsPerOp != 0 {
			t.Errorf("cached cell %s must carry no host telemetry: %+v", r.Job.Name(), r)
		}
	}
	if !reflect.DeepEqual(statsOf(t, coldRes), statsOf(t, warmRes)) {
		t.Error("cached stats differ from simulated stats")
	}

	// A machine-configuration change must invalidate every cell.
	bigger := cfg
	bigger.L2SliceBytes *= 2
	inval := New(bigger, Options{Workers: 2, CacheDir: dir})
	if _, err := inval.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if c := inval.Counters(); int(c.SimRuns) != len(jobs) {
		t.Fatalf("config change did not invalidate: %+v", c)
	}

	// So must a workload-parameter change.
	reseeded := append([]Job(nil), jobs...)
	for i := range reseeded {
		reseeded[i].Workload.Seed += 1000
	}
	reseed := New(cfg, Options{Workers: 2, CacheDir: dir})
	if _, err := reseed.Run(context.Background(), reseeded); err != nil {
		t.Fatal(err)
	}
	if c := reseed.Counters(); int(c.SimRuns) != len(reseeded) {
		t.Fatalf("workload change did not invalidate: %+v", c)
	}
}

func TestCorruptCacheEntryIsAMiss(t *testing.T) {
	jobs := tinyJobs(1)[:1]
	cfg := gpusim.DefaultConfig()
	dir := t.TempDir()
	eng := New(cfg, Options{CacheDir: dir})
	want, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var entries []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			entries = append(entries, path)
		}
		return nil
	})
	if len(entries) != 1 {
		t.Fatalf("cache entries = %d, want 1", len(entries))
	}
	if err := os.WriteFile(entries[0], []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	again := New(cfg, Options{CacheDir: dir})
	got, err := again.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if c := again.Counters(); c.SimRuns != 1 {
		t.Fatalf("corrupt entry should re-simulate: %+v", c)
	}
	if !reflect.DeepEqual(statsOf(t, want), statsOf(t, got)) {
		t.Error("re-simulated stats differ")
	}
}

func TestCancellationMidSweep(t *testing.T) {
	var jobs []Job
	for i := 0; i < 8; i++ {
		w := tinyWorkload(int64(i), "cancel")
		w.OpsPerSM = 2000
		jobs = append(jobs, Job{Workload: w, Mode: gpusim.ModeNone})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	eng := New(gpusim.DefaultConfig(), Options{
		Workers:  1,
		Progress: func(Progress) { once.Do(cancel) },
	})
	results, err := eng.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("results = %d, want one slot per job", len(results))
	}
	if results[0].Err != nil {
		t.Errorf("first cell completed before the cancel, should be clean: %v", results[0].Err)
	}
	var failed int
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no cell carries the cancellation error")
	}
	if c := eng.Counters(); int(c.Failed) != failed {
		t.Errorf("Failed counter %d, want %d", c.Failed, failed)
	}
}

type panicTrace struct{}

func (panicTrace) Next() (gpusim.WarpOp, bool) { panic("synthetic trace failure") }

func TestPanicIsolation(t *testing.T) {
	jobs := []Job{
		{Mode: gpusim.ModeNone, Traces: func(numSMs int) []gpusim.Trace {
			return []gpusim.Trace{panicTrace{}}
		}},
		{Workload: tinyWorkload(7, "survivor"), Mode: gpusim.ModeNone},
	}
	eng := New(gpusim.DefaultConfig(), Options{Workers: 2})
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panicked") {
		t.Errorf("panicking cell err = %v", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("healthy cell died with the panicking one: %v", results[1].Err)
	}
	if c := eng.Counters(); c.Panics != 1 || c.Failed != 1 {
		t.Errorf("counters = %+v", c)
	}
	if err := FirstError(results); err == nil {
		t.Error("FirstError missed the failed cell")
	}
}

// TestCell: Engine.Cell is one Run cell on the calling goroutine —
// the same stats, cache hits, counters and obs log, panic isolation,
// and a context cancelled before the cell starts fails it unsimulated.
func TestCell(t *testing.T) {
	job := tinyJobs(1)[1]
	cfg := gpusim.DefaultConfig()
	viaRun, err := New(cfg, Options{}).Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.NewHub()
	eng := New(cfg, Options{CacheDir: t.TempDir(), Obs: hub})
	cold := eng.Cell(context.Background(), job, nil)
	warm := eng.Cell(context.Background(), job, nil)
	if cold.Cached || !warm.Cached {
		t.Fatalf("cached = %v then %v, want false then true", cold.Cached, warm.Cached)
	}
	want := statsOf(t, viaRun)
	if got := statsOf(t, []Result{cold, warm}); !reflect.DeepEqual(got, []gpusim.Stats{want[0], want[0]}) {
		t.Error("Cell stats differ from a Run of the same job")
	}
	key, _ := CacheKeyFor(cfg, job)
	if _, ok := eng.Lookup(key); !ok {
		t.Error("Lookup missed the entry Cell stored")
	}

	panicky := Job{Mode: gpusim.ModeNone, Traces: func(int) []gpusim.Trace { return []gpusim.Trace{panicTrace{}} }}
	if r := eng.Cell(context.Background(), panicky, nil); r.Err == nil || !strings.Contains(r.Err.Error(), "panicked") {
		t.Errorf("panicking cell err = %v", r.Err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r := eng.Cell(ctx, tinyJobs(2)[2], nil); !errors.Is(r.Err, context.Canceled) || r.Duration != 0 {
		t.Errorf("cancelled cell = %+v, want context.Canceled and no run", r)
	}
	if c := eng.Counters(); c != (Counters{SimRuns: 2, CacheHits: 1, CacheMisses: 1, Failed: 2, Panics: 1}) {
		t.Errorf("counters = %+v", c)
	}
	if cells := hub.Cells(); len(cells) != 4 || cells[0].NsPerOp <= 0 || cells[1].NsPerOp != 0 {
		t.Errorf("obs cell log = %+v, want 4 cells, host telemetry on the simulated one only", cells)
	}
}

func TestInvalidCellConfigFailsCellOnly(t *testing.T) {
	jobs := []Job{
		// Carve-out mode without a geometry is rejected by gpusim.New.
		{Workload: tinyWorkload(1, "badcfg"), Mode: gpusim.ModeCarveOut},
		{Workload: tinyWorkload(2, "ok"), Mode: gpusim.ModeNone},
	}
	eng := New(gpusim.DefaultConfig(), Options{})
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("invalid cell config must fail the cell")
	}
	if results[1].Err != nil {
		t.Errorf("valid cell failed: %v", results[1].Err)
	}
	if c := eng.Counters(); c.SimRuns != 1 {
		t.Errorf("SimRuns = %d, want 1 (the bad cell never reached Run)", c.SimRuns)
	}
}

func TestTraceOverrideCaching(t *testing.T) {
	w := tinyWorkload(3, "override")
	src := func(numSMs int) []gpusim.Trace { return w.Traces(numSMs) }
	dir := t.TempDir()

	// Without a Key, an override cell is never cached.
	unkeyed := []Job{{Mode: gpusim.ModeNone, Traces: src}}
	for i := 0; i < 2; i++ {
		eng := New(gpusim.DefaultConfig(), Options{CacheDir: dir})
		if _, err := eng.Run(context.Background(), unkeyed); err != nil {
			t.Fatal(err)
		}
		if c := eng.Counters(); c.SimRuns != 1 || c.CacheHits+c.CacheMisses != 0 {
			t.Fatalf("run %d: unkeyed override touched the cache: %+v", i, c)
		}
	}

	// With a Key it caches like a catalog cell.
	keyed := []Job{{Mode: gpusim.ModeNone, Traces: src, Key: "override-v1"}}
	first := New(gpusim.DefaultConfig(), Options{CacheDir: dir})
	if _, err := first.Run(context.Background(), keyed); err != nil {
		t.Fatal(err)
	}
	second := New(gpusim.DefaultConfig(), Options{CacheDir: dir})
	if _, err := second.Run(context.Background(), keyed); err != nil {
		t.Fatal(err)
	}
	if c := second.Counters(); c.SimRuns != 0 || c.CacheHits != 1 {
		t.Fatalf("keyed override did not cache: %+v", c)
	}
}

func TestProgressSnapshots(t *testing.T) {
	jobs := tinyJobs(3)
	var mu sync.Mutex
	var snaps []Progress
	eng := New(gpusim.DefaultConfig(), Options{
		Workers: 2,
		Progress: func(p Progress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
	})
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(jobs) {
		t.Fatalf("snapshots = %d, want %d", len(snaps), len(jobs))
	}
	last := snaps[len(snaps)-1]
	if last.Done != len(jobs) || last.Total != len(jobs) || last.Failed != 0 {
		t.Errorf("final snapshot = %+v", last)
	}
	if last.CellsPerSec <= 0 {
		t.Errorf("rate = %v, want > 0", last.CellsPerSec)
	}
}
