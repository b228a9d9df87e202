package experiments

import (
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
)

// manifestConfig is the hashable subset of Options: everything that
// determines experiment *results* (machine, scale, seeds), excluding
// runtime plumbing (parallelism, cache location, callbacks) that cannot
// change what the run produces.
type manifestConfig struct {
	GPU            gpusim.Config
	RandomTrials   int
	WorkloadStride int
	SecurityTrials int
	Seed           int64
}

// BuildManifest assembles the run manifest attached to every results/
// directory: the hash of the result-determining configuration, the
// binary's toolchain + VCS identity, wall time, per-phase timings, and
// — when an obs.Hub accumulated the run — the engine's counters, full
// metric snapshot and per-cell duration log.
func BuildManifest(name string, opts Options, hub *obs.Hub, wall time.Duration, phases []obs.PhaseTiming) obs.Manifest {
	opts = opts.fill()
	m := obs.NewManifest(name, manifestConfig{
		GPU:            opts.GPU,
		RandomTrials:   opts.RandomTrials,
		WorkloadStride: opts.WorkloadStride,
		SecurityTrials: opts.SecurityTrials,
		Seed:           opts.Seed,
	})
	m.WallSeconds = wall.Seconds()
	m.Phases = phases
	if hub != nil && hub.Metrics != nil {
		snap := hub.Metrics.Snapshot()
		m.Counters = snap.Counters
		m.Metrics = &snap
		m.Cells = hub.Cells()
	}
	return m
}
