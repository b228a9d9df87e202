package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/gpusim"
)

// Pattern is the access-pattern family of a workload.
type Pattern int

const (
	// PatternStream: unit-stride streaming (STREAM copy/scale/add/triad).
	PatternStream Pattern = iota
	// PatternStrided: dense strided accesses (GEMM/conv-like tiles).
	PatternStrided
	// PatternStencil: structured-grid sweeps with neighbor reuse.
	PatternStencil
	// PatternSparse: CSR SpMV-like row streams plus random column gathers.
	PatternSparse
	// PatternRandomFine: fine-grained uniform random accesses
	// (graph/embedding lookups; the carve-out's worst case).
	PatternRandomFine
	// PatternGather: clustered neighbor-list gathers (MD codes such as
	// the paper's LAMMPS/AMBER outliers).
	PatternGather
)

func (p Pattern) String() string {
	switch p {
	case PatternStream:
		return "stream"
	case PatternStrided:
		return "strided"
	case PatternStencil:
		return "stencil"
	case PatternSparse:
		return "sparse"
	case PatternRandomFine:
		return "random-fine"
	case PatternGather:
		return "gather"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Workload describes one synthetic application trace.
type Workload struct {
	ID      int
	Name    string
	Suite   string // "MLPerf", "HPC+SLA", "STREAM"
	Pattern Pattern

	FootprintBytes uint64
	OpsPerSM       int
	// ComputePerOp is the issue gap between memory instructions — the
	// arithmetic intensity knob (0 = fully memory-bound).
	ComputePerOp int
	// WriteFrac is the fraction of warp ops that are stores.
	WriteFrac float64
	// AtomicFrac is the fraction of warp ops that are near-memory atomics
	// (frontier updates, histogram bins); checked before WriteFrac.
	AtomicFrac float64
	// HotFrac directs this fraction of irregular accesses into a hot
	// region of the footprint (power-law reuse, as in real graph /
	// embedding / SpMV workloads); the rest scatter across the whole
	// footprint. 0 means uniform.
	HotFrac float64
	// HotDiv sets the hot region size to FootprintBytes/HotDiv (0 → 16).
	HotDiv uint64
	Seed   int64

	// AllocSizes models the workload's allocation-size distribution for
	// the footprint-bloat analysis (§5); entries repeat per AllocCounts.
	AllocSizes  []uint64
	AllocCounts []int
}

// Traces builds one trace per SM for the given machine configuration.
func (w Workload) Traces(numSMs int) []gpusim.Trace {
	out := make([]gpusim.Trace, numSMs)
	for sm := 0; sm < numSMs; sm++ {
		out[sm] = w.trace(sm, numSMs)
	}
	return out
}

func (w Workload) trace(sm, numSMs int) gpusim.Trace {
	rng := rand.New(rand.NewSource(w.Seed*1_000_003 + int64(sm)))
	footprint := w.FootprintBytes
	if footprint < 4096 {
		footprint = 4096
	}
	hotDiv := w.HotDiv
	if hotDiv == 0 {
		hotDiv = 16
	}
	hotRegion := footprint / hotDiv
	if hotRegion < 4096 {
		hotRegion = 4096
	}
	// irregular draws a fine-grained address with HotFrac of the accesses
	// concentrated in the hot region (skewed reuse).
	irregular := func() uint64 {
		if w.HotFrac > 0 && rng.Float64() < w.HotFrac {
			return uint64(rng.Int63n(int64(hotRegion/4))) * 4
		}
		return uint64(rng.Int63n(int64(footprint/4))) * 4
	}
	gen := func(i int, addrs []uint64) gpusim.WarpOp {
		op := gpusim.WarpOp{Compute: w.ComputePerOp, Addrs: addrs}
		switch roll := rng.Float64(); {
		case roll < w.AtomicFrac:
			op.Atomic = true
		case roll < w.AtomicFrac+w.WriteFrac:
			op.Store = true
		}
		switch w.Pattern {
		case PatternStream:
			// Warp i of SM sm touches 128 consecutive bytes; SMs stripe
			// through the footprint.
			base := (uint64(i)*uint64(numSMs) + uint64(sm)) * 128 % footprint
			for t := 0; t < 4; t++ {
				op.Addrs = append(op.Addrs, base+uint64(t)*32)
			}
		case PatternStrided:
			// Blocked tile walk (GEMM/conv): each SM sweeps its working
			// tile sequentially and revisits it, so most traffic hits in
			// the caches after the first pass.
			tile := footprint / hotDiv
			if tile < 64*1024 {
				tile = 64 * 1024
			}
			base := (uint64(i) * 128) % tile
			tileBase := uint64(sm) * tile
			for t := 0; t < 4; t++ {
				op.Addrs = append(op.Addrs, tileBase+base+uint64(t)*32)
			}
		case PatternStencil:
			// Sweep with ±1-plane neighbors: strong reuse between ops.
			row := (uint64(i)*uint64(numSMs) + uint64(sm)) * 32 % (footprint / 4)
			op.Addrs = append(op.Addrs, row, row+footprint/4, row+footprint/2)
		case PatternSparse:
			// CSR SpMV: streaming row/value arrays plus x-vector gathers
			// with skewed column reuse.
			rowBase := (uint64(i)*uint64(numSMs) + uint64(sm)) * 64 % (footprint / 2)
			op.Addrs = append(op.Addrs, rowBase, rowBase+32)
			gathers := 4 + rng.Intn(5)
			for g := 0; g < gathers; g++ {
				op.Addrs = append(op.Addrs, footprint/2+irregular()%(footprint/2-64))
			}
		case PatternRandomFine:
			// Fine-grained lookups (graph frontiers, embedding rows) with
			// power-law locality.
			for t := 0; t < 16; t++ {
				op.Addrs = append(op.Addrs, irregular())
			}
		case PatternGather:
			// Neighbor-list clusters: spatially local 64B clusters around
			// a sliding window (MD neighbor lists), plus occasional far
			// particles.
			window := uint64(512 * 1024)
			winBase := (uint64(i) * 256) % (footprint - window)
			for c := 0; c < 5; c++ {
				var base uint64
				if rng.Float64() < 0.92 {
					base = winBase + uint64(rng.Int63n(int64(window/64)))*64
				} else {
					base = uint64(rng.Int63n(int64(footprint/64))) * 64
				}
				op.Addrs = append(op.Addrs, base, base+32)
			}
		}
		return op
	}
	return &gpusim.FuncTrace{N: w.OpsPerSM, Gen: gen}
}

// FootprintBloat returns the TG-granule rounding overhead of the
// workload's allocation model: Σ roundup(size, granule) / Σ size − 1.
func (w Workload) FootprintBloat(granuleBytes uint64) float64 {
	var req, foot uint64
	for i, size := range w.AllocSizes {
		count := uint64(1)
		if i < len(w.AllocCounts) {
			count = uint64(w.AllocCounts[i])
		}
		req += size * count
		foot += (size + granuleBytes - 1) / granuleBytes * granuleBytes * count
	}
	if req == 0 {
		return 0
	}
	return float64(foot)/float64(req) - 1
}

// TotalAllocBytes is the workload's total requested allocation volume.
func (w Workload) TotalAllocBytes() uint64 {
	var req uint64
	for i, size := range w.AllocSizes {
		count := uint64(1)
		if i < len(w.AllocCounts) {
			count = uint64(w.AllocCounts[i])
		}
		req += size * count
	}
	return req
}
