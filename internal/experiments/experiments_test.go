package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestFig1(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) == 0 {
		t.Fatal("empty series")
	}
	tbl := r.Table()
	if len(tbl.Rows) != len(r.Series) {
		t.Error("table row count mismatch")
	}
	if !strings.Contains(tbl.Render(), "2018") {
		t.Error("missing 2018 row")
	}
}

func TestFig5(t *testing.T) {
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(r.Ks)*len(r.Rs) {
		t.Fatalf("points = %d", len(r.Points))
	}
	// The two starred anchors.
	for _, p := range r.Points {
		if p.K == 256 && p.R == 10 && p.MaxTS != 9 {
			t.Errorf("(256,10) → %d, want 9", p.MaxTS)
		}
		if p.K == 256 && p.R == 16 && p.MaxTS != 15 {
			t.Errorf("(256,16) → %d, want 15", p.MaxTS)
		}
		// Figure 5's white space: (512, R≤9) cannot be SEC.
		if p.K == 512 && p.R <= 9 && p.SECCapable {
			t.Errorf("(512,%d) should not be SEC-capable", p.R)
		}
	}
	out := r.Table().Render()
	if !strings.Contains(out, "9*") || !strings.Contains(out, "15*") {
		t.Errorf("starred cells missing:\n%s", out)
	}
}

func TestTable3(t *testing.T) {
	r, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	out := r.Table().Render()
	if !strings.Contains(out, "+0.00 ns") {
		t.Errorf("expected zero delay overhead:\n%s", out)
	}
}

func TestFig9Quick(t *testing.T) {
	r, err := Fig9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 16 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Shape: R=16 SDC far below R=10.
	if !(r.Points[15].RandomSDC < r.Points[9].RandomSDC/10) {
		t.Errorf("R=16 SDC %.4f not ≪ R=10 SDC %.4f", r.Points[15].RandomSDC, r.Points[9].RandomSDC)
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestTable2Quick(t *testing.T) {
	r, err := Table2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Configs) != 2 {
		t.Fatalf("configs = %d", len(r.Configs))
	}
	for _, c := range r.Configs {
		if len(c.Rows) != 6 {
			t.Fatalf("%s rows = %d, want 6 (tag, 1b..4b, random)", c.Name, len(c.Rows))
		}
		// Tag corruption: 100% detected.
		if c.Rows[0].Tally.DERate() != 1 {
			t.Errorf("%s tag-corrupt DE = %v", c.Name, c.Rows[0].Tally.DERate())
		}
		// 1b corrected, 2b detected.
		if c.Rows[1].Tally.CERate() != 1 {
			t.Errorf("%s 1b CE = %v", c.Name, c.Rows[1].Tally.CERate())
		}
		if c.Rows[2].Tally.DERate() != 1 {
			t.Errorf("%s 2b DE = %v", c.Name, c.Rows[2].Tally.DERate())
		}
	}
	// 4b errors are enumerated, not sampled, at every scale: C(266,4)
	// and C(272,4) patterns.
	for i, want := range []uint64{203_927_570, 223_070_940} {
		row := r.Configs[i].Rows[4]
		if row.Sampled || row.Tally.Total != want {
			t.Errorf("%s 4b: sampled=%v total=%d, want exhaustive %d", r.Configs[i].Name, row.Sampled, row.Tally.Total, want)
		}
	}
	// 3b SDC regimes (paper: 52.47% and 4.95%).
	if s := r.Configs[0].Rows[3].Tally.SDCRate(); s < 0.4 || s > 0.65 {
		t.Errorf("IMT-10 3b SDC = %v", s)
	}
	if s := r.Configs[1].Rows[3].Tally.SDCRate(); s < 0.005 || s > 0.12 {
		t.Errorf("IMT-16 3b SDC = %v", s)
	}
	tables := r.Tables()
	if len(tables) != 2 || tables[0].Render() == "" {
		t.Error("rendering failed")
	}
}

func TestStealingRiskQuick(t *testing.T) {
	rows, err := StealingRisk(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Measured <= 0 {
			t.Errorf("%s: measured amplification %v", row.Name, row.Measured)
		}
		// Measured should track the analytic factor within MC noise.
		if math.Abs(row.Measured-row.Analytic)/row.Analytic > 0.25 {
			t.Errorf("%s: measured %.2f vs analytic %.2f", row.Name, row.Measured, row.Analytic)
		}
	}
}

func TestSecurityQuick(t *testing.T) {
	r, err := Security(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (5 schemes × 2 policies)", len(r.Rows))
	}
	for _, row := range r.Rows {
		if math.Abs(row.Sim.NonAdjacentDetected-row.Closed.NonAdjacent) > 0.02 {
			t.Errorf("%s/%s: sim %.4f vs closed %.4f", row.Scheme, row.Policy,
				row.Sim.NonAdjacentDetected, row.Closed.NonAdjacent)
		}
		if row.Policy == "scudo" && row.Sim.AdjacentDetected != 1 {
			t.Errorf("%s/scudo adjacent = %v", row.Scheme, row.Sim.AdjacentDetected)
		}
	}
	if math.Abs(r.ImprovementIMT10-36.4) > 1 {
		t.Errorf("IMT-10 improvement = %.1f, want ≈ 36", r.ImprovementIMT10)
	}
	if math.Abs(r.ImprovementIMT16-2340) > 10 {
		t.Errorf("IMT-16 improvement = %.0f, want ≈ 2340", r.ImprovementIMT16)
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestBloat(t *testing.T) {
	r := Bloat()
	if len(r.Groups) != 2 {
		t.Fatalf("groups = %d", len(r.Groups))
	}
	small, large := r.Groups[0], r.Groups[1]
	if small.Count == 0 || large.Count == 0 {
		t.Fatal("both footprint classes must be populated")
	}
	// §5 shape: small programs see visible bloat, large ones almost none.
	if !(small.HMean > large.HMean*3) {
		t.Errorf("small hmean %.4f should dwarf large hmean %.4f", small.HMean, large.HMean)
	}
	if small.Max < 0.2 {
		t.Errorf("small max bloat = %.2f, want ≥ 0.2 (paper: 0.5)", small.Max)
	}
	if large.Max > 0.05 {
		t.Errorf("large max bloat = %.2f, want ≤ 0.05 (paper: 0.018)", large.Max)
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestFig8AndTable1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := Quick()
	opts.WorkloadStride = 24 // 9 workloads
	opts.Parallelism = 1
	opts.CacheDir = t.TempDir()
	f, err := Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.Runner.SimRuns == 0 || f.Runner.CacheHits != 0 {
		t.Fatalf("cold -j1 run counters: %+v", f.Runner)
	}

	// The same sweep on 8 workers with a cold cache must produce
	// byte-identical numbers: the runner's result ordering is
	// deterministic and each cell's simulation is seed-deterministic.
	wide := opts
	wide.Parallelism = 8
	wide.CacheDir = t.TempDir()
	f8, err := Fig8(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Per, f8.Per) {
		t.Fatal("-j1 and -j8 sweeps disagree")
	}

	// A warm-cache re-run performs zero gpusim.Sim.Run invocations.
	warm, err := Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Runner.SimRuns != 0 {
		t.Fatalf("warm cache still simulated %d cells", warm.Runner.SimRuns)
	}
	if warm.Runner.CacheHits != f.Runner.SimRuns {
		t.Fatalf("warm cache hits %d, want %d", warm.Runner.CacheHits, f.Runner.SimRuns)
	}
	if !reflect.DeepEqual(f.Per, warm.Per) {
		t.Fatal("cached sweep disagrees with the simulated one")
	}
	if len(f.Per) == 0 {
		t.Fatal("no workloads simulated")
	}
	for _, p := range f.Per {
		if p.SlowLow < -0.01 {
			t.Errorf("%s: negative slowdown %.3f", p.W.Name, p.SlowLow)
		}
		if p.SlowHigh < p.SlowLow-0.02 {
			t.Errorf("%s: high-tag (%.3f) should not beat low-tag (%.3f)", p.W.Name, p.SlowHigh, p.SlowLow)
		}
	}
	if f.SuiteTable().Render() == "" || f.PerWorkloadTable().Render() == "" || f.AnalysisTable().Render() == "" {
		t.Error("rendering failed")
	}

	t1, err := Table1(opts, &f)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Schemes) != 8 {
		t.Fatalf("schemes = %d", len(t1.Schemes))
	}
	out := t1.Table().Render()
	if !strings.Contains(out, "IMT-16") || !strings.Contains(out, "none") {
		t.Errorf("Table 1 rendering:\n%s", out)
	}
}

func TestBoundsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := Quick()
	opts.WorkloadStride = 24
	r, err := Bounds(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Per) == 0 {
		t.Fatal("no workloads")
	}
	// Bounds checking is cheap: no workload should approach carve-out
	// worst cases.
	if r.MaxAffected > 0.2 {
		t.Errorf("bounds max slowdown = %.3f, too high", r.MaxAffected)
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestOptionsFill(t *testing.T) {
	o := Options{}.fill()
	if o.RandomTrials == 0 || o.WorkloadStride == 0 || o.Parallelism == 0 || o.GPU.NumSMs == 0 {
		t.Errorf("fill left zero fields: %+v", o)
	}
	if Full().WorkloadStride != 1 {
		t.Error("Full options wrong")
	}
	if Quick().WorkloadStride == 1 {
		t.Error("Quick options wrong")
	}
	_ = workload.CatalogSize
}

func TestExtSymbolQuick(t *testing.T) {
	r, err := ExtSymbol(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(r.Rows))
	}
	if r.MaxTagBit != 15 || r.MaxTagSym != 8 || r.CountingBoundSym != 15 {
		t.Errorf("tag limits: bit=%d sym=%d counting=%d", r.MaxTagBit, r.MaxTagSym, r.CountingBoundSym)
	}
	byName := map[string]ExtSymbolRow{}
	for _, row := range r.Rows {
		byName[row.Pattern] = row
	}
	// The §7.1 headline: the symbol code CORRECTS byte errors that the
	// bit-oriented code can only detect.
	be := byName["byte (multi-bit in one byte)"]
	if be.SymCE < 0.999 {
		t.Errorf("symbol byte CE = %v, want ~1", be.SymCE)
	}
	if be.BitCE > 0.3 {
		t.Errorf("bit byte CE = %v, should be small (only 1-bit patterns)", be.BitCE)
	}
	if be.BitDE+be.BitCE < 0.9 {
		t.Errorf("bit code should still detect byte errors: DE=%v", be.BitDE)
	}
	// Both correct single-bit errors perfectly.
	ob := byName["1-bit"]
	if ob.BitCE != 1 || ob.SymCE < 0.999 {
		t.Errorf("1-bit CE: bit=%v sym=%v", ob.BitCE, ob.SymCE)
	}
	// Burst-4: the symbol code corrects the (majority) bursts confined to
	// one byte; the bit code corrects none.
	b4 := byName["burst-4"]
	if !(b4.SymCE > 0.4 && b4.BitCE == 0) {
		t.Errorf("burst-4 CE: bit=%v sym=%v", b4.BitCE, b4.SymCE)
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestExtCPUQuick(t *testing.T) {
	r, err := ExtCPU(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxTS64 != 15 {
		t.Errorf("MaxTS64 = %d, want 15 (Eq 5b at K=512, R=16)", r.MaxTS64)
	}
	// Longer codewords roughly double the miscorrection alias rate:
	// (512+16+1)/2^16 vs (256+16+1)/2^16.
	ratio := r.RandomSDC64 / r.RandomSDC32
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("SDC ratio 64B/32B = %.2f, want ≈ 1.94", ratio)
	}
	if r.TagCorruptTMM64 != 1 {
		t.Errorf("tag corruption detection = %v, want 1", r.TagCorruptTMM64)
	}
	// §7.2's fragmentation point: 64B-granule tagging bloats a CPU-style
	// small-allocation mix much more than 32B-granule tagging.
	if !(r.Bloat64 > r.Bloat32*1.5) {
		t.Errorf("bloat64 (%.3f) should far exceed bloat32 (%.3f)", r.Bloat64, r.Bloat32)
	}
	if r.Bloat64 < 0.2 {
		t.Errorf("bloat64 = %.3f, expected severe fragmentation", r.Bloat64)
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestExtAllocQuick(t *testing.T) {
	r, err := ExtAlloc(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 || r.TagBits != 9 || r.UAFWindow != 510 {
		t.Fatalf("shape: %+v", r)
	}
	for _, row := range r.Rows {
		if row.LiveObjects <= r.UAFWindow {
			// While the heap fits the tag space the deterministic tagger
			// must detect EVERY non-adjacent overflow.
			if row.Deterministic != 1 {
				t.Errorf("live=%d: deterministic detection = %v, want exactly 1", row.LiveObjects, row.Deterministic)
			}
		} else if row.Deterministic >= 1 {
			t.Errorf("live=%d: saturation should cost something", row.LiveObjects)
		}
		// Random policies stay probabilistic at every population.
		if row.Glibc >= 1 || row.Scudo >= 1 {
			t.Errorf("live=%d: random policies cannot be deterministic", row.LiveObjects)
		}
		if row.Glibc < 0.99 || row.Scudo < 0.99 {
			t.Errorf("live=%d: rates unexpectedly low (%v, %v)", row.LiveObjects, row.Glibc, row.Scudo)
		}
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	modes, err := ParseSweepModes([]string{"imt", "carve-low"})
	if err != nil {
		t.Fatal(err)
	}
	opts := Quick()
	opts.WorkloadStride = 48 // 5 workloads
	r, err := Sweep(opts, modes)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Per) != 5 || len(r.Modes) != 2 {
		t.Fatalf("shape: %d workloads, %d modes", len(r.Per), len(r.Modes))
	}
	for _, p := range r.Per {
		// IMT adds no memory traffic by construction: exactly the
		// baseline machine, so exactly the baseline cycles.
		if p.Slowdowns[0] != 0 {
			t.Errorf("%s: IMT slowdown = %v, want 0", p.W.Name, p.Slowdowns[0])
		}
		if p.Slowdowns[1] < -0.01 {
			t.Errorf("%s: carve-low slowdown = %v", p.W.Name, p.Slowdowns[1])
		}
	}
	if r.Table().Render() == "" || r.PerWorkloadTable().Render() == "" {
		t.Error("rendering failed")
	}
	if _, err := ParseSweepModes([]string{"imt", "imt"}); err == nil {
		t.Error("duplicate modes must be rejected")
	}
	if _, err := ParseSweepModes([]string{"bogus"}); err == nil {
		t.Error("unknown mode must be rejected")
	}
	if _, err := Sweep(opts, nil); err == nil {
		t.Error("empty mode set must be rejected")
	}
}

func TestFig8Correlation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := Quick()
	opts.WorkloadStride = 10 // 20 workloads for a meaningful correlation
	f, err := Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 8c's claim, quantified: slowdown correlates strongly with
	// bloat × bandwidth pressure.
	if c := f.Correlation(); c < 0.6 {
		t.Errorf("slowdown vs bloat×BW correlation = %.2f, want ≥ 0.6", c)
	}
}

func TestExtVA57Quick(t *testing.T) {
	r, err := ExtVA57(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.PointerOK {
		t.Error("7-bit tag must fit a 57-bit VA pointer")
	}
	if r.Tags7 != 126 {
		t.Errorf("tags = %d, want 126", r.Tags7)
	}
	// Detection: 1 − 1/126 ≈ 99.21% — still far above the 4-bit industry
	// schemes (92.86%), below IMT-16.
	if r.Det7 < 0.992 || r.Det7 > 0.9922 || r.Det7 >= r.Det15 {
		t.Errorf("detection: %v vs %v", r.Det7, r.Det15)
	}
	// Alias-freedom intact.
	if r.TagCorrupt7 != 1 {
		t.Errorf("tag corruption detection = %v", r.TagCorrupt7)
	}
	// The Table 2 footnote's "~2x per TS bit" misattribution reduction
	// holds exactly for UNIFORM random errors: the tag space covers
	// (2^TS-1)/2^R of the syndromes, so TS=7 attributes ~2^-8 of what
	// TS=15 does.
	randRatio := r.RandTMM15 / r.RandTMM7
	if randRatio < 150 || randRatio > 400 {
		t.Errorf("random misattribution ratio = %.0f, want ~256", randRatio)
	}
	// For structured 2-bit errors the reduction is real but milder: their
	// low-weight syndromes concentrate in exactly the low rows the
	// shortened staircase occupies.
	ratio := r.Misattr2b15 / r.Misattr2b7
	if ratio < 5 || ratio > 50 {
		t.Errorf("2b misattribution ratio = %.1f, want O(10)", ratio)
	}
	// SDC is a property of the underlying code, not the tag.
	if d := r.RandSDC7 - r.RandSDC15; d > 0.002 || d < -0.002 {
		t.Errorf("SDC moved with tag size: %v vs %v", r.RandSDC7, r.RandSDC15)
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}
