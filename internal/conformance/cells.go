package conformance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/gf2"
	"repro/internal/gpusim"
	"repro/internal/reliability"
	"repro/internal/security"
	"repro/internal/tagalloc"
	"repro/internal/workload"
)

// simModes are the tagging configurations every per-workload sim cell
// pins (gpusim.ParseTagMode spellings): all tag modes through the
// simulator, with both carve-out geometries since they share a TagMode
// but diverge in traffic.
var simModes = []string{"none", "imt", "ecc-steal", "carve-low", "carve-high", "bounds-table"}

// canonicalModes are the four distinct machines behind simModes (imt
// and ecc-steal canonicalize to none); the first two also drive the
// family cell's starved machine and replay.
var canonicalModes = []string{"none", "carve-low", "carve-high", "bounds-table"}

// SimMetrics pins one (workload, mode) simulation: every aggregate
// counter plus every derived ratio the reports consume, so a refactor
// that shifts either the raw counts or the ratio math is caught.
type SimMetrics struct {
	Cycles                                  uint64
	WarpOps, Loads, Stores, Atomics         uint64
	L1Hits, L1Misses, L2Hits, L2Misses      uint64
	DRAMDataReads, DRAMTagReads, DRAMWrites uint64
	TagL2Hits, TagL2Misses                  uint64

	ReadBloat            float64
	BandwidthUtilization float64
	L1HitRate            float64
	L2HitRate            float64
	TagL2HitRate         float64
	// SlowdownVsNone compares against the cell's own ModeNone run.
	SlowdownVsNone float64
}

func newSimMetrics(st gpusim.Stats, cfg gpusim.Config, baseline gpusim.Stats) SimMetrics {
	return SimMetrics{
		Cycles:  st.Cycles,
		WarpOps: st.WarpOps, Loads: st.Loads, Stores: st.Stores, Atomics: st.Atomics,
		L1Hits: st.L1Hits, L1Misses: st.L1Misses, L2Hits: st.L2Hits, L2Misses: st.L2Misses,
		DRAMDataReads: st.DRAMDataReads, DRAMTagReads: st.DRAMTagReads, DRAMWrites: st.DRAMWrites,
		TagL2Hits: st.TagL2Hits, TagL2Misses: st.TagL2Misses,
		ReadBloat:            st.ReadBloat(),
		BandwidthUtilization: st.BandwidthUtilization(cfg),
		L1HitRate:            st.L1HitRate(),
		L2HitRate:            st.L2HitRate(),
		TagL2HitRate:         st.TagL2HitRate(),
		SlowdownVsNone:       gpusim.Slowdown(baseline, st),
	}
}

// workloadByName resolves a catalog workload; the cell fails loudly if
// the catalog no longer contains it (itself a conformance signal).
func workloadByName(name string) (workload.Workload, error) {
	for _, w := range workload.Catalog() {
		if w.Name == name {
			return w, nil
		}
	}
	return workload.Workload{}, fmt.Errorf("workload %q no longer in the catalog", name)
}

func runWorkload(w workload.Workload, cfg gpusim.Config) (gpusim.Stats, error) {
	return runTraces(cfg, w.Traces(cfg.NumSMs))
}

func runTraces(cfg gpusim.Config, traces []gpusim.Trace) (gpusim.Stats, error) {
	sim, err := gpusim.New(cfg, traces)
	if err != nil {
		return gpusim.Stats{}, err
	}
	return sim.Run(0)
}

// runModes simulates fresh traces under each mode on machine base and
// stores the results in out under "<prefix><mode>". SlowdownVsNone
// compares against the same traces and machine under mode none, which
// must come first.
func runModes(out map[string]SimMetrics, prefix string, modes []string, base gpusim.Config, traces func() []gpusim.Trace) error {
	var baseline gpusim.Stats
	for _, mode := range modes {
		cfg := base
		var err error
		if cfg.Mode, cfg.Carve, err = gpusim.ParseTagMode(mode); err != nil {
			return err
		}
		st, err := runTraces(cfg, traces())
		if err != nil {
			return fmt.Errorf("%s%s: %w", prefix, mode, err)
		}
		if mode == "none" {
			baseline = st
		}
		out[prefix+mode] = newSimMetrics(st, cfg, baseline)
	}
	return nil
}

// simCell pins one catalog workload across every tagging mode on the
// default quarter-GV100 machine.
func simCell(name string) Cell {
	return Cell{
		Name:  "sim-" + name,
		About: "gpusim aggregate counters and derived ratios for " + name + " under every tag mode",
		Run: func() (any, error) {
			w, err := workloadByName(name)
			if err != nil {
				return nil, err
			}
			cfg := gpusim.DefaultConfig()
			out := map[string]SimMetrics{}
			err = runModes(out, "", simModes, cfg, func() []gpusim.Trace { return w.Traces(cfg.NumSMs) })
			return out, err
		},
	}
}

// familyWorkloads are the smallest catalog workloads (fewest ops per
// SM, then smallest footprint) of the access-pattern families the
// sim-* cells above leave unpinned: stream, random-fine and the
// hpc-micro kernels already have a cell each.
var familyWorkloads = []string{"mlperf-dlrm-l3", "hpc-stencil22", "sla-spmv31", "md-neigh11"}

// replayWorkload is the family cell's recorded trace: the smallest
// graph kernel, the only catalog family that issues atomics.
const replayWorkload = "graph-bfs9"

// familiesSimCell pins the simulator on the workload families the
// per-workload cells miss, on an MSHR-starved machine whose SMs spend
// most cycles blocked on L1 MSHRs, and on one recorded trace replayed
// through OpenTraceAt. Keys are "<workload>/<config>"; SlowdownVsNone
// compares against the same traces and machine under mode none.
func familiesSimCell() Cell {
	return Cell{
		Name:  "sim-families",
		About: "gpusim counters for one workload per unpinned pattern family, an MSHR-starved machine and a replayed recorded trace",
		Run: func() (any, error) {
			out := map[string]SimMetrics{}
			cfg := gpusim.DefaultConfig()
			starved := cfg
			starved.L1MSHRs = 4
			starved.MaxOutstandingOps = 2
			for _, name := range familyWorkloads {
				w, err := workloadByName(name)
				if err != nil {
					return nil, err
				}
				generate := func() []gpusim.Trace { return w.Traces(cfg.NumSMs) }
				if err := runModes(out, name+"/", canonicalModes, cfg, generate); err != nil {
					return nil, err
				}
				if err := runModes(out, name+"/starved-", canonicalModes[:2], starved, generate); err != nil {
					return nil, err
				}
			}

			w, err := workloadByName(replayWorkload)
			if err != nil {
				return nil, err
			}
			var blob bytes.Buffer
			if err := gpusim.WriteTraces(&blob, w.Traces(cfg.NumSMs)); err != nil {
				return nil, err
			}
			idx, err := gpusim.IndexTraceStream(bytes.NewReader(blob.Bytes()))
			if err != nil {
				return nil, err
			}
			replay := func() []gpusim.Trace { return gpusim.OpenTraceAt(bytes.NewReader(blob.Bytes()), idx) }
			if err := runModes(out, "replay-"+replayWorkload+"/", canonicalModes[:2], cfg, replay); err != nil {
				return nil, err
			}
			return out, nil
		},
	}
}

// sampledSimCell pins the phase-telemetry time series (PR 2's sampler):
// the full window-by-window Samples slice plus its summary reductions.
func sampledSimCell(name string) Cell {
	return Cell{
		Name:  "sim-sampled-" + name,
		About: "phase-telemetry sample series for " + name + " (SampleInterval=20000, mode imt)",
		Run: func() (any, error) {
			w, err := workloadByName(name)
			if err != nil {
				return nil, err
			}
			cfg := gpusim.DefaultConfig()
			cfg.Mode = gpusim.ModeIMT
			cfg.SampleInterval = 20000
			st, err := runWorkload(w, cfg)
			if err != nil {
				return nil, err
			}
			return struct {
				Cycles               uint64
				Samples              []gpusim.Sample
				PeakBandwidthUtil    float64
				BandwidthBoundFrac50 float64
				MeanBandwidthUtil    float64
			}{
				Cycles:               st.Cycles,
				Samples:              st.Samples,
				PeakBandwidthUtil:    st.PeakBandwidthUtil(),
				BandwidthBoundFrac50: st.BandwidthBoundFraction(0.5),
				MeanBandwidthUtil:    st.BandwidthUtilization(cfg),
			}, nil
		},
	}
}

// TallySummary is a fault-injection tally in golden-friendly form.
type TallySummary struct {
	Total, CE, DUE, TMM, SDC uint64
}

func newTallySummary(t reliability.Tally) TallySummary {
	return TallySummary{Total: t.Total, CE: t.CE, DUE: t.DUE, TMM: t.TMM, SDC: t.SDC}
}

// matrixDigest fingerprints a parity-check matrix: sha256 over its
// dimensions and column vectors. Any change to a construction —
// candidate ordering, row balancing, tie-breaks — changes the digest.
func matrixDigest(m *gf2.Matrix) string {
	h := sha256.New()
	fmt.Fprintf(h, "%dx%d\n", m.Rows(), m.Cols())
	for j := 0; j < m.Cols(); j++ {
		fmt.Fprintf(h, "%x\n", m.Col(j))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ECCCodeSummary pins one ecc construction.
type ECCCodeSummary struct {
	Name         string
	Kind         string
	K, R, N      int
	HDigest      string
	MaxRowWeight int
	TotalOnes    int
	// Exhaustive tallies over the physical bits (nil when not computed
	// for this code).
	Exhaustive1 *TallySummary `json:",omitempty"`
	Exhaustive2 *TallySummary `json:",omitempty"`
	Exhaustive3 *TallySummary `json:",omitempty"`
}

func summarizeECC(c *ecc.Code, maxK int) (ECCCodeSummary, error) {
	h := c.H()
	s := ECCCodeSummary{
		Name: c.Name(), Kind: c.Kind().String(),
		K: c.K(), R: c.R(), N: c.N(),
		HDigest:      matrixDigest(h),
		MaxRowWeight: h.MaxRowWeight(),
		TotalOnes:    h.TotalOnes(),
	}
	t := reliability.TargetECC(c)
	for k := 1; k <= maxK; k++ {
		tally, err := reliability.ExhaustiveKBit(t, k)
		if err != nil {
			return s, err
		}
		ts := newTallySummary(tally)
		switch k {
		case 1:
			s.Exhaustive1 = &ts
		case 2:
			s.Exhaustive2 = &ts
		case 3:
			s.Exhaustive3 = &ts
		}
	}
	return s, nil
}

// eccConstructionsCell pins every ecc code family: the exact H matrices
// the deterministic constructors emit and the exhaustive error behavior
// of the workhorse sizes.
func eccConstructionsCell() Cell {
	return Cell{
		Name:  "ecc-constructions",
		About: "H-matrix digests and exhaustive tallies of the ecc code families",
		Run: func() (any, error) {
			out := map[string]ECCCodeSummary{}
			add := func(label string, c *ecc.Code, err error, maxK int) error {
				if err != nil {
					return fmt.Errorf("%s: %w", label, err)
				}
				s, err := summarizeECC(c, maxK)
				if err != nil {
					return fmt.Errorf("%s: %w", label, err)
				}
				out[label] = s
				return nil
			}
			h256, err := ecc.NewHsiao(256, 16)
			if err := add("hsiao-256-16", h256, err, 2); err != nil {
				return nil, err
			}
			h64, err := ecc.NewHsiao(64, 8)
			if err := add("hsiao-64-8", h64, err, 3); err != nil {
				return nil, err
			}
			sec, err := ecc.NewSEC(32, 6, 7)
			if err := add("sec-32-6", sec, err, 2); err != nil {
				return nil, err
			}
			det, err := ecc.NewDetectOnly(32, 6, 11)
			if err := add("detect-32-6", det, err, 2); err != nil {
				return nil, err
			}
			if err := add("parity-32", ecc.NewParity(32), nil, 2); err != nil {
				return nil, err
			}
			return out, nil
		},
	}
}

// afteccConstructionCell pins the paper's flagship IMT-16 code — its
// parity-check matrix, verified structural properties, exhaustive 1/2/3
// bit error behavior (Table 2's substance) and the sampled tag-mismatch
// guarantee — plus the Equation 5b tag-size bound at several sizes.
func afteccConstructionCell() Cell {
	return Cell{
		Name:  "aftecc-imt16",
		About: "AFT-ECC(256,16,15) matrix digest, verified properties, exhaustive tallies and tag-size bounds",
		Run: func() (any, error) {
			c, err := core.NewCode(256, 16, 15, core.Options{})
			if err != nil {
				return nil, err
			}
			props := core.Verify(c)
			t := reliability.TargetAFT(c)
			var tallies [3]TallySummary
			for k := 1; k <= 3; k++ {
				tally, err := reliability.ExhaustiveKBit(t, k)
				if err != nil {
					return nil, err
				}
				tallies[k-1] = newTallySummary(tally)
			}
			tagTally := newTallySummary(reliability.TagCorruptions(c, 20000, 42))

			maxTS := map[string]int{}
			for _, kr := range [][2]int{{64, 8}, {128, 9}, {256, 10}, {256, 16}, {512, 11}} {
				ts, err := core.MaxTagSize(kr[0], kr[1])
				if err != nil {
					return nil, err
				}
				maxTS[fmt.Sprintf("k%d-r%d", kr[0], kr[1])] = ts
			}
			return struct {
				K, R, TS, N  int
				PhysicalBits int
				HDigest      string
				Properties   core.Properties
				Exhaustive1  TallySummary
				Exhaustive2  TallySummary
				Exhaustive3  TallySummary
				// TagMismatch is a 20k-sample lock/key mismatch campaign;
				// the alias-free guarantee demands 100% TMM.
				TagMismatch TallySummary
				MaxTagSize  map[string]int
			}{
				K: c.K(), R: c.R(), TS: c.TS(), N: c.N(),
				PhysicalBits: c.PhysicalBits(),
				HDigest:      matrixDigest(c.H()),
				Properties:   props,
				Exhaustive1:  tallies[0],
				Exhaustive2:  tallies[1],
				Exhaustive3:  tallies[2],
				TagMismatch:  tagTally,
				MaxTagSize:   maxTS,
			}, nil
		},
	}
}

// reliabilityCurveCell pins one Figure 9 reliability curve at reduced
// scale, computed with a fixed worker count so the Monte-Carlo split is
// identical on every machine.
func reliabilityCurveCell() Cell {
	return Cell{
		Name:  "reliability-curve-k64",
		About: "Figure 9 SDC-vs-redundancy curve for K=64, R=1..12 (20k trials, 1 worker)",
		Run: func() (any, error) {
			pts, err := reliability.SDCCurveWorkers(64, 12, 20000, 1234, 1)
			if err != nil {
				return nil, err
			}
			type point struct {
				R           int
				Kind        string
				RandomSDC   float64
				ThreeBitSDC float64
				HasThreeBit bool
			}
			out := make([]point, len(pts))
			for i, p := range pts {
				out[i] = point{
					R: p.R, Kind: p.Kind.String(),
					RandomSDC:   p.RandomSDC,
					ThreeBitSDC: p.ThreeBitSDC,
					HasThreeBit: p.HasThreeBit,
				}
			}
			return out, nil
		},
	}
}

// securityCell pins one row of the §5.4 security analysis: closed-form
// guarantees for the standard tag sizes and a seeded Monte-Carlo attack
// campaign against the real taggers.
func securityCell() Cell {
	return Cell{
		Name:  "security-guarantees",
		About: "closed-form tagging guarantees and seeded attack-simulation detection rates",
		Run: func() (any, error) {
			type attack struct {
				Trials              int
				AdjacentDetected    float64
				NonAdjacentDetected float64
				UseAfterFreeCaught  float64
			}
			glibc8, err := security.SimulateAttacks(tagalloc.GlibcTagger{TagBits: 8}, 16, 5000, 99)
			if err != nil {
				return nil, err
			}
			scudo8, err := security.SimulateAttacks(tagalloc.ScudoTagger{TagBits: 8}, 16, 5000, 99)
			if err != nil {
				return nil, err
			}
			return struct {
				Glibc4, Glibc8, Glibc16 security.Guarantees
				Scudo8, Scudo16         security.Guarantees
				// ImprovementIMT16VsMTE4 is the paper's ≈2340× misdetection
				// improvement of IMT-16/glibc over an ARM-MTE-like 4-bit scheme.
				ImprovementIMT16VsMTE4 float64
				AttackGlibc8           attack
				AttackScudo8           attack
			}{
				Glibc4:                 security.Glibc(4),
				Glibc8:                 security.Glibc(8),
				Glibc16:                security.Glibc(16),
				Scudo8:                 security.Scudo(8),
				Scudo16:                security.Scudo(16),
				ImprovementIMT16VsMTE4: security.MisdetectionImprovement(security.Glibc(4), security.Glibc(16)),
				AttackGlibc8: attack{glibc8.Trials, glibc8.AdjacentDetected,
					glibc8.NonAdjacentDetected, glibc8.UseAfterFreeCaught},
				AttackScudo8: attack{scudo8.Trials, scudo8.AdjacentDetected,
					scudo8.NonAdjacentDetected, scudo8.UseAfterFreeCaught},
			}, nil
		},
	}
}

// workloadCatalogCell fingerprints the 193-workload catalog: population
// counts, a digest over every workload's identity and parameters, and
// the footprint-bloat anchors the §5 analysis quotes.
func workloadCatalogCell() Cell {
	return Cell{
		Name:  "workload-catalog",
		About: "catalog population, parameter digest and footprint-bloat anchors",
		Run: func() (any, error) {
			cat := workload.Catalog()
			suiteCounts := map[string]int{}
			h := sha256.New()
			var totalAlloc uint64
			for _, w := range cat {
				suiteCounts[w.Suite]++
				// The digest covers the full parameter set: any catalog
				// drift (renames, reseeds, retuned knobs) changes it.
				fmt.Fprintf(h, "%d|%s|%s|%v|%d|%d|%d|%g|%g|%g|%d|%d|%v|%v\n",
					w.ID, w.Name, w.Suite, w.Pattern, w.FootprintBytes, w.OpsPerSM,
					w.ComputePerOp, w.WriteFrac, w.AtomicFrac, w.HotFrac, w.HotDiv,
					w.Seed, w.AllocSizes, w.AllocCounts)
				totalAlloc += w.TotalAllocBytes()
			}
			bloat := map[string]float64{}
			for _, name := range []string{"stream-copy-16MB", "mlperf-ssd-l0", "md-neigh0", "hpc-micro0"} {
				w, err := workloadByName(name)
				if err != nil {
					return nil, err
				}
				bloat[name] = w.FootprintBloat(32)
			}
			suites := workload.Suites()
			sort.Strings(suites) // canonical order for the golden
			return struct {
				CatalogSize     int
				Suites          []string
				SuiteCounts     map[string]int
				ParamDigest     string
				TotalAllocBytes uint64
				FootprintBloat  map[string]float64
			}{
				CatalogSize:     len(cat),
				Suites:          suites,
				SuiteCounts:     suiteCounts,
				ParamDigest:     hex.EncodeToString(h.Sum(nil)),
				TotalAllocBytes: totalAlloc,
				FootprintBloat:  bloat,
			}, nil
		},
	}
}
