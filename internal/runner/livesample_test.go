package runner

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gpusim"
)

// TestOnSampleLiveForwarding: Engine.Cell forwards every recorded
// sample of a simulated cell to its sink, live, tagged with the cell's
// name and cache key, with a dense per-cell sequence — and the sink
// changes no results. The jobs carry their own sampling interval, and
// run concurrently, each with the same sink.
func TestOnSampleLiveForwarding(t *testing.T) {
	// Distinct workload names: live samples are demultiplexed by cell
	// name, so the test cells must not collide.
	jobs := []Job{
		{Workload: tinyWorkload(100, "live-a"), Mode: gpusim.ModeNone, SampleInterval: 500},
		{Workload: tinyWorkload(101, "live-b"), Mode: gpusim.ModeIMT, SampleInterval: 500},
		{Workload: tinyWorkload(102, "live-c"), Mode: gpusim.ModeCarveOut, Carve: gpusim.CarveOutLow, SampleInterval: 500},
	}
	cfg := gpusim.DefaultConfig()

	base, err := New(cfg, Options{Workers: 2}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	byCell := map[string][]LiveSample{}
	sink := func(ls LiveSample) {
		mu.Lock()
		byCell[ls.Cell] = append(byCell[ls.Cell], ls)
		mu.Unlock()
	}
	eng := New(cfg, Options{})
	observed := make([]Result, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			observed[i] = eng.Cell(context.Background(), job, sink)
		}()
	}
	wg.Wait()

	for i, res := range observed {
		name := jobs[i].Name()
		got := byCell[name]
		if len(got) == 0 {
			t.Fatalf("cell %q emitted no live samples", name)
		}
		if len(got) != len(res.Stats.Samples) {
			t.Fatalf("cell %q: %d live samples, %d recorded", name, len(got), len(res.Stats.Samples))
		}
		wantKey, ok := CacheKeyFor(cfg, jobs[i])
		if !ok {
			t.Fatalf("cell %q unexpectedly uncacheable", name)
		}
		for j, ls := range got {
			if ls.Seq != j {
				t.Fatalf("cell %q sample %d carries seq %d (gap or reorder)", name, j, ls.Seq)
			}
			if ls.Sample != res.Stats.Samples[j] {
				t.Fatalf("cell %q live sample %d differs from the recorded series", name, j)
			}
			if ls.Key != wantKey {
				t.Fatalf("cell %q sample key %q, want %q", name, ls.Key, wantKey)
			}
		}
	}
	if !reflect.DeepEqual(statsOf(t, base), statsOf(t, observed)) {
		t.Error("a live-sample sink changed simulation results")
	}
}

// TestOnSampleCachedCellsSilent: cache hits resolve without simulating
// and must emit nothing into Engine.Cell's sink.
func TestOnSampleCachedCellsSilent(t *testing.T) {
	jobs := tinyJobs(1)
	cfg := gpusim.DefaultConfig()
	cfg.SampleInterval = 500
	dir := t.TempDir()

	if _, err := New(cfg, Options{Workers: 1, CacheDir: dir}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	fired := 0
	eng := New(cfg, Options{CacheDir: dir})
	for _, job := range jobs {
		r := eng.Cell(context.Background(), job, func(LiveSample) { fired++ })
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !r.Cached {
			t.Fatalf("warm run did not hit the cache: %+v", r)
		}
	}
	if fired != 0 {
		t.Fatalf("cached cells fired the live sink %d times, want 0", fired)
	}
}
