package experiments

import (
	"runtime"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Options tunes experiment cost. The zero value runs paper-scale
// parameters; Quick() runs CI-scale ones.
type Options struct {
	// RandomTrials for Monte-Carlo corruption campaigns (paper: 1e8).
	RandomTrials int
	// WorkloadStride simulates every n-th catalog workload (1 = all 193).
	WorkloadStride int
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// CacheDir enables the runner's content-addressed on-disk result
	// cache for the simulation sweeps (fig8, table1, bounds, sweep);
	// "" disables caching.
	CacheDir string
	// Progress, when non-nil, receives runner snapshots as sweep cells
	// complete (for command-line progress reporting).
	Progress func(runner.Progress)
	// Obs, when non-nil, receives engine telemetry from every sweep this
	// options value drives: registry metrics, per-cell trace spans, and
	// the cell log embedded in run manifests. Sharing one hub across
	// experiments accumulates a whole repro run into one place.
	Obs *obs.Hub
	// GPU is the simulated machine (zero value → gpusim.DefaultConfig).
	GPU gpusim.Config
	// SecurityTrials for the attack Monte Carlo.
	SecurityTrials int
	// CITrials is the per-point Monte-Carlo budget of the high-trial
	// Figure 9 mode (Fig9CI), which reports Wilson confidence bounds;
	// 0 → 10× RandomTrials. The bitsliced injector sustains tens of
	// millions of injections per second, so paper-scale CITrials cost
	// seconds, not minutes.
	CITrials int
	Seed     int64
}

// Full returns paper-scale options (minutes of runtime).
func Full() Options {
	return Options{
		RandomTrials:   2_000_000,
		WorkloadStride: 1,
		SecurityTrials: 200_000,
		CITrials:       20_000_000,
		Seed:           1,
	}
}

// Quick returns CI-scale options (seconds of runtime).
func Quick() Options {
	return Options{
		RandomTrials:   100_000,
		WorkloadStride: 16,
		SecurityTrials: 20_000,
		Seed:           1,
	}
}

func (o Options) fill() Options {
	if o.RandomTrials == 0 {
		o.RandomTrials = 100_000
	}
	if o.WorkloadStride == 0 {
		o.WorkloadStride = 1
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.GPU.NumSMs == 0 {
		o.GPU = gpusim.DefaultConfig()
	}
	if o.SecurityTrials == 0 {
		o.SecurityTrials = 20_000
	}
	if o.CITrials == 0 {
		o.CITrials = 10 * o.RandomTrials
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}
