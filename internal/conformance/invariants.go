package conformance

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// The metamorphic pillar checks relations that must hold between *pairs*
// of runs — properties no golden can pin because they quantify over
// configurations: observation (sampling) must not perturb results, the
// two run entry points must agree, repetition must be bit-identical,
// cloning must not alias, and more memory bandwidth must never slow a
// run down.

// invariantWorkloads are the cells the metamorphic relations quantify
// over: one streaming and one irregular workload, kept small so the
// whole pillar runs in seconds.
func invariantWorkloads() []string {
	return []string{"hpc-micro0", "stream-copy-16MB"}
}

// statsDiff compares two Stats field-by-field through the same canonical
// JSON walk the goldens use, so a divergence names the metric.
func statsDiff(a, b gpusim.Stats) (string, error) {
	ja, err := CanonicalJSON(a)
	if err != nil {
		return "", err
	}
	jb, err := CanonicalJSON(b)
	if err != nil {
		return "", err
	}
	return Diff(ja, jb), nil
}

// checkSamplingInvariance verifies that turning the phase-telemetry
// sampler on (at several intervals) changes nothing but the Samples
// series: observation must not perturb the simulation.
func checkSamplingInvariance(w workload.Workload) *Finding {
	check := "invariant/sampling-neutral/" + w.Name
	cfg := gpusim.DefaultConfig()
	cfg.Mode = gpusim.ModeIMT
	base, err := runWorkload(w, cfg)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	for _, interval := range []uint64{1000, 20000, 1 << 40} {
		scfg := cfg
		scfg.SampleInterval = interval
		st, err := runWorkload(w, scfg)
		if err != nil {
			return &Finding{check, err.Error()}
		}
		if interval < 1<<40 && len(st.Samples) == 0 {
			return &Finding{check, fmt.Sprintf("SampleInterval=%d recorded no samples", interval)}
		}
		st.Samples = nil
		d, err := statsDiff(base, st)
		if err != nil {
			return &Finding{check, err.Error()}
		}
		if d != "" {
			return &Finding{check, fmt.Sprintf("SampleInterval=%d perturbed the run: %s", interval, d)}
		}
	}
	// The live-streaming hook rides the sampler: an OnSample observer
	// must be exactly as neutral as sampling itself, and must see the
	// same series the Stats record.
	hcfg := cfg
	hcfg.SampleInterval = 20000
	var seen []gpusim.Sample
	hcfg.OnSample = func(smp gpusim.Sample) { seen = append(seen, smp) }
	st, err := runWorkload(w, hcfg)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	if len(seen) != len(st.Samples) {
		return &Finding{check, fmt.Sprintf("OnSample observed %d samples, Stats recorded %d", len(seen), len(st.Samples))}
	}
	for i := range seen {
		if seen[i] != st.Samples[i] {
			return &Finding{check, fmt.Sprintf("OnSample sample %d differs from the recorded series", i)}
		}
	}
	st.Samples = nil
	d, err := statsDiff(base, st)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	if d != "" {
		return &Finding{check, "an OnSample observer perturbed the run: " + d}
	}
	return nil
}

// checkRunContextEquivalence verifies Run(n) ≡ RunContext(Background(), n).
func checkRunContextEquivalence(w workload.Workload) *Finding {
	check := "invariant/run-equals-runcontext/" + w.Name
	cfg := gpusim.DefaultConfig()
	cfg.Mode = gpusim.ModeECCSteal
	a, err := runWorkload(w, cfg)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	sim, err := gpusim.New(cfg, w.Traces(cfg.NumSMs))
	if err != nil {
		return &Finding{check, err.Error()}
	}
	b, err := sim.RunContext(context.Background(), 0)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	d, err := statsDiff(a, b)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	if d != "" {
		return &Finding{check, "Run and RunContext(Background()) disagree: " + d}
	}
	return nil
}

// checkRepeatability verifies that re-running a cell from scratch is
// bit-identical — the simulator has no hidden global state, map-order
// dependence or time dependence.
func checkRepeatability(w workload.Workload) *Finding {
	check := "invariant/repeatable/" + w.Name
	cfg := gpusim.DefaultConfig()
	cfg.Mode = gpusim.ModeCarveOut
	cfg.Carve = gpusim.CarveOutLow
	cfg.SampleInterval = 20000
	a, err := runWorkload(w, cfg)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	b, err := runWorkload(w, cfg)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	d, err := statsDiff(a, b)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	if d != "" {
		return &Finding{check, "two identical runs diverged: " + d}
	}
	return nil
}

// materialize drains a workload's generator traces into SliceTraces.
func materialize(w workload.Workload, numSMs int) []gpusim.Trace {
	out := make([]gpusim.Trace, numSMs)
	for i, tr := range w.Traces(numSMs) {
		st := &gpusim.SliceTrace{}
		for {
			op, ok := tr.Next()
			if !ok {
				break
			}
			st.Ops = append(st.Ops, op)
		}
		out[i] = st
	}
	return out
}

// checkCloneIsolation verifies that simulating cloned traces leaves the
// originals untouched (ops, their address slices, and read positions),
// and that original and clone then produce identical results.
func checkCloneIsolation(w workload.Workload) *Finding {
	check := "invariant/clone-isolation/" + w.Name
	cfg := gpusim.DefaultConfig()
	cfg.Mode = gpusim.ModeIMT
	orig := materialize(w, cfg.NumSMs)

	// Snapshot the original ops before anything runs.
	snapshot, err := gpusim.CloneTraces(orig)
	if err != nil {
		return &Finding{check, err.Error()}
	}

	clones, err := gpusim.CloneTraces(orig)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	sim, err := gpusim.New(cfg, clones)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	cloneStats, err := sim.Run(0)
	if err != nil {
		return &Finding{check, err.Error()}
	}

	for i := range orig {
		o := orig[i].(*gpusim.SliceTrace)
		s := snapshot[i].(*gpusim.SliceTrace)
		if !reflect.DeepEqual(o.Ops, s.Ops) {
			return &Finding{check, fmt.Sprintf("simulating a clone mutated original trace %d", i)}
		}
		if op, ok := o.Next(); !ok || !reflect.DeepEqual(op, s.Ops[0]) {
			return &Finding{check, fmt.Sprintf("original trace %d no longer rewound after cloning", i)}
		}
	}

	// The originals were advanced one op by the rewind probe above; use
	// the snapshot for the comparison run instead.
	sim2, err := gpusim.New(cfg, snapshot)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	origStats, err := sim2.Run(0)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	d, err := statsDiff(cloneStats, origStats)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	if d != "" {
		return &Finding{check, "clone and original produced different results: " + d}
	}
	return nil
}

// checkBandwidthMonotonicity verifies that raising DRAM bandwidth
// (lowering the cycles charged per 32B sector) never increases total
// cycles. A violation means contention modeling has gone non-physical.
func checkBandwidthMonotonicity(w workload.Workload) *Finding {
	check := "invariant/bandwidth-monotonic/" + w.Name
	var prevCycles uint64
	var prevCost int
	for i, cost := range []int{8, 4, 2, 1} { // bandwidth increases left to right
		cfg := gpusim.DefaultConfig()
		cfg.Mode = gpusim.ModeIMT
		cfg.DRAMCyclesPerSector = cost
		st, err := runWorkload(w, cfg)
		if err != nil {
			return &Finding{check, err.Error()}
		}
		if i > 0 && st.Cycles > prevCycles {
			return &Finding{check, fmt.Sprintf(
				"more bandwidth slowed the run: %d cycles/sector → %d cycles, but %d cycles/sector → %d cycles",
				prevCost, prevCycles, cost, st.Cycles)}
		}
		prevCycles, prevCost = st.Cycles, cost
	}
	return nil
}

// checkRunnerCache verifies the engine's disk cache round-trip on a
// sentinel cell: a warm re-run must hit the cache, skip the simulator,
// and reproduce the cold run's stats exactly.
func checkRunnerCache() *Finding {
	check := "invariant/runner-cache"
	w, err := workloadByName("hpc-micro0")
	if err != nil {
		return &Finding{check, err.Error()}
	}
	dir, err := os.MkdirTemp("", "conformance-cache-")
	if err != nil {
		return &Finding{check, err.Error()}
	}
	defer os.RemoveAll(dir)

	jobs := []runner.Job{{Workload: w, Mode: gpusim.ModeIMT}}
	run := func() (runner.Result, runner.Counters, error) {
		eng := runner.New(gpusim.DefaultConfig(), runner.Options{Workers: 1, CacheDir: dir})
		res, err := eng.Run(context.Background(), jobs)
		if err != nil {
			return runner.Result{}, runner.Counters{}, err
		}
		if res[0].Err != nil {
			return runner.Result{}, runner.Counters{}, res[0].Err
		}
		return res[0], eng.Counters(), nil
	}

	cold, cc, err := run()
	if err != nil {
		return &Finding{check, err.Error()}
	}
	if cold.Cached || cc.SimRuns != 1 || cc.CacheMisses != 1 {
		return &Finding{check, fmt.Sprintf("cold run: cached=%v counters=%+v, want one miss and one sim run", cold.Cached, cc)}
	}
	warm, wc, err := run()
	if err != nil {
		return &Finding{check, err.Error()}
	}
	if !warm.Cached || wc.SimRuns != 0 || wc.CacheHits != 1 {
		return &Finding{check, fmt.Sprintf("warm run: cached=%v counters=%+v, want one hit and zero sim runs", warm.Cached, wc)}
	}
	d, err := statsDiff(cold.Stats, warm.Stats)
	if err != nil {
		return &Finding{check, err.Error()}
	}
	if d != "" {
		return &Finding{check, "cache hit differs from recompute: " + d}
	}
	return nil
}

// checkKeySoundness verifies that the runner cache key never merges
// cells that simulate differently. It keys every tagging-mode spelling
// gpusim.ParseTagMode accepts with keyOf (runner.CacheKeyFor in
// production), simulates each directly with gpusim.New+Run, and
// requires every cell sharing a key to produce byte-identical canonical
// Stats: otherwise a cache hit, a coalesced request or a shard's
// routing would hand one cell another's result.
func checkKeySoundness(w workload.Workload, keyOf func(gpusim.Config, runner.Job) (string, bool)) *Finding {
	check := "invariant/key-soundness/" + w.Name
	type member struct {
		spelling string
		stats    []byte
	}
	first := map[string]member{}
	for _, spelling := range gpusim.TagModeNames() {
		mode, carve, err := gpusim.ParseTagMode(spelling)
		if err != nil {
			return &Finding{check, err.Error()}
		}
		cfg := gpusim.DefaultConfig()
		key, ok := keyOf(cfg, runner.Job{Workload: w, Mode: mode, Carve: carve})
		if !ok {
			return &Finding{check, spelling + ": catalog cell has no cache key"}
		}
		cfg.Mode, cfg.Carve = mode, carve
		st, err := runWorkload(w, cfg)
		if err != nil {
			return &Finding{check, spelling + ": " + err.Error()}
		}
		got, err := CanonicalJSON(st)
		if err != nil {
			return &Finding{check, err.Error()}
		}
		m, seen := first[key]
		if !seen {
			first[key] = member{spelling, got}
			continue
		}
		if !bytes.Equal(m.stats, got) {
			return &Finding{check, fmt.Sprintf("%s and %s share cache key %.12s but simulate differently: %s",
				m.spelling, spelling, key, Diff(m.stats, got))}
		}
	}
	return nil
}

// CheckInvariants runs the metamorphic pillar.
func CheckInvariants() []Finding {
	var out []Finding
	add := func(f *Finding) {
		if f != nil {
			out = append(out, *f)
		}
	}
	for _, name := range invariantWorkloads() {
		w, err := workloadByName(name)
		if err != nil {
			out = append(out, Finding{"invariant/workload/" + name, err.Error()})
			continue
		}
		add(checkSamplingInvariance(w))
		add(checkRunContextEquivalence(w))
		add(checkRepeatability(w))
		add(checkCloneIsolation(w))
		add(checkBandwidthMonotonicity(w))
		add(checkKeySoundness(w, runner.CacheKeyFor))
	}
	add(checkRunnerCache())
	return out
}
