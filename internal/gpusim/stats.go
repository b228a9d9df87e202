package gpusim

import "fmt"

// Stats aggregates one simulation run.
type Stats struct {
	Cycles uint64

	WarpOps, Loads, Stores, Atomics uint64

	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64

	// DRAM sector transfers by cause.
	DRAMDataReads uint64
	DRAMTagReads  uint64
	DRAMWrites    uint64

	TagL2Hits, TagL2Misses uint64

	// Samples is the phase-resolved telemetry time series recorded every
	// Config.SampleInterval cycles (empty when sampling is disabled).
	// It lets consumers see *when* a run is bandwidth-bound — the peak
	// and phase structure behind the end-of-run aggregates above.
	Samples []Sample `json:",omitempty"`

	// HostNsPerOp and HostAllocsPerOp are host-side cost telemetry: the
	// wall nanoseconds and heap allocations the simulator itself spent
	// per simulated warp op during Run/RunContext. They describe the
	// machine running the simulation, not the machine being simulated,
	// and are nondeterministic — so they are json:"-" tagged, keeping
	// them out of the conformance goldens, the runner's disk cache and
	// every canonical-JSON comparison. Both are 0 on a run that issued
	// no warp ops; HostAllocsPerOp reads the process-wide allocation
	// counter (runtime.MemStats.Mallocs, through runtime/metrics so no
	// read stops the world). That counter trails by part of a span per
	// size class, and other goroutines allocating concurrently (e.g.
	// parallel sweeps) land in it too, so the figure is approximate.
	HostNsPerOp     float64 `json:"-"`
	HostAllocsPerOp float64 `json:"-"`
}

// Sample is one telemetry window. Rates are computed over the window
// (not cumulatively), so the series resolves phases that the aggregate
// Stats hide. The final window of a run may be shorter than the sample
// interval; windows that span fast-forwarded idle stretches may be
// longer (idle gaps are collapsed into the window they end in).
type Sample struct {
	// Cycle is the simulation time at the end of the window.
	Cycle uint64
	// Cycles is the window length.
	Cycles uint64

	// BandwidthUtil is DRAM traffic in the window relative to the
	// configured peak (0..1).
	BandwidthUtil float64
	// L1HitRate / L2HitRate / TagHitRate are the window's hit rates
	// (0 when the window saw no accesses of that kind).
	L1HitRate  float64
	L2HitRate  float64
	TagHitRate float64

	// MSHROccupancy is the instantaneous fraction of L1 MSHRs in use at
	// the sample point, averaged across SMs (0..1).
	MSHROccupancy float64
	// QueueDepth / DRAMQueueDepth are the mean instantaneous L2-slice
	// request-queue and DRAM-queue depths at the sample point.
	QueueDepth     float64
	DRAMQueueDepth float64
}

// WithoutHost returns a copy of s with the host-side cost telemetry
// zeroed — the deterministic, simulated-machine part of the Stats.
// Differential comparisons (repeatability tests, replay equivalence,
// cache-hit-vs-recompute) must compare WithoutHost values or the
// canonical JSON encoding, which already excludes the host fields.
func (s Stats) WithoutHost() Stats {
	s.HostNsPerOp, s.HostAllocsPerOp = 0, 0
	return s
}

// ReadBloat is the fraction of extra DRAM read traffic caused by tag
// fetches: tag reads / data reads (Figure 8c's "% Read Bloat").
// A run with no DRAM data reads returns 0 — "no bloat measurable", not
// a measured-zero; the distinction matters only for empty traces.
func (s Stats) ReadBloat() float64 {
	if s.DRAMDataReads == 0 {
		return 0
	}
	return float64(s.DRAMTagReads) / float64(s.DRAMDataReads)
}

// DRAMBytes is the total DRAM traffic in bytes.
func (s Stats) DRAMBytes() uint64 {
	return 32 * (s.DRAMDataReads + s.DRAMTagReads + s.DRAMWrites)
}

// BandwidthUtilization is achieved DRAM bandwidth relative to the
// configured peak (0..1); the x-coordinate of the Figure 8c analysis.
//
// When s.Cycles is 0 (a run that never executed, e.g. an empty trace or
// an unpopulated Stats value) the result is a NaN-safe 0. Telemetry
// consumers must read that 0 as "utilization not measured", not as an
// idle memory system; check s.Cycles > 0 to distinguish the two. The
// same guard covers a zero-value or unvalidated Config (NumSlices or
// DRAMCyclesPerSector ≤ 0 would otherwise make the peak 0 or negative
// and leak ±Inf/NaN into JSON exports, which encoding/json rejects).
func (s Stats) BandwidthUtilization(cfg Config) float64 {
	if s.Cycles == 0 {
		return 0
	}
	if cfg.NumSlices <= 0 || cfg.DRAMCyclesPerSector <= 0 {
		return 0
	}
	peakBytesPerCycle := float64(cfg.NumSlices) * 32 / float64(cfg.DRAMCyclesPerSector)
	return float64(s.DRAMBytes()) / float64(s.Cycles) / peakBytesPerCycle
}

// PeakBandwidthUtil returns the maximum per-window bandwidth
// utilization over the sampled time series — the phase-resolved
// counterpart of BandwidthUtilization's run-wide mean. It returns 0
// when sampling was disabled (no samples recorded).
func (s Stats) PeakBandwidthUtil() float64 {
	peak := 0.0
	for _, smp := range s.Samples {
		if smp.BandwidthUtil > peak {
			peak = smp.BandwidthUtil
		}
	}
	return peak
}

// BandwidthBoundFraction returns the fraction of sampled cycles spent
// in windows whose bandwidth utilization is at or above threshold — a
// direct "how long was this workload bandwidth-bound" measure for the
// Figure 8c analysis. Returns 0 when sampling was disabled.
func (s Stats) BandwidthBoundFraction(threshold float64) float64 {
	var bound, total uint64
	for _, smp := range s.Samples {
		total += smp.Cycles
		if smp.BandwidthUtil >= threshold {
			bound += smp.Cycles
		}
	}
	if total == 0 {
		return 0
	}
	return float64(bound) / float64(total)
}

// L1HitRate and L2HitRate are convenience accessors.
func (s Stats) L1HitRate() float64 {
	if t := s.L1Hits + s.L1Misses; t > 0 {
		return float64(s.L1Hits) / float64(t)
	}
	return 0
}

// L2HitRate returns the L2 data hit rate.
func (s Stats) L2HitRate() float64 {
	if t := s.L2Hits + s.L2Misses; t > 0 {
		return float64(s.L2Hits) / float64(t)
	}
	return 0
}

// TagL2HitRate returns the tag-cache (tag sectors resident in L2) hit
// rate; 0 when the run performed no tag lookups (e.g. outside
// ModeCarveOut), which consumers must not read as a 0% hit rate.
func (s Stats) TagL2HitRate() float64 {
	if t := s.TagL2Hits + s.TagL2Misses; t > 0 {
		return float64(s.TagL2Hits) / float64(t)
	}
	return 0
}

func (s Stats) String() string {
	out := fmt.Sprintf("cycles=%d ops=%d atomics=%d L1=%.1f%% L2=%.1f%% tagL2=%.1f%% dram(data=%d tag=%d wr=%d) bloat=%.1f%%",
		s.Cycles, s.WarpOps, s.Atomics, 100*s.L1HitRate(), 100*s.L2HitRate(), 100*s.TagL2HitRate(),
		s.DRAMDataReads, s.DRAMTagReads, s.DRAMWrites, 100*s.ReadBloat())
	if s.HostNsPerOp > 0 {
		// Host-side simulator cost (absent on unpopulated Stats values,
		// e.g. zero literals in tests or cells resolved from the cache).
		out += fmt.Sprintf(" host(ns/op=%.0f allocs/op=%.2f)", s.HostNsPerOp, s.HostAllocsPerOp)
	}
	return out
}

// Slowdown compares two runs of the same workload: how much slower
// `tagged` is than `baseline`, as a fraction (0.05 = 5% slower).
//
// When baseline.Cycles is 0 (baseline never ran) the result is a
// NaN-safe 0: "no slowdown measured", not a measured-equal pair.
// Callers feeding dashboards should verify baseline.Cycles > 0 before
// treating the value as a comparison.
func Slowdown(baseline, tagged Stats) float64 {
	if baseline.Cycles == 0 {
		return 0
	}
	return float64(tagged.Cycles)/float64(baseline.Cycles) - 1
}
