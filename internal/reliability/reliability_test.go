package reliability

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
)

func aftCode(t *testing.T, k, r, ts int) *core.Code {
	t.Helper()
	c, err := core.NewCode(k, r, ts, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTable2SingleBitAlwaysCorrected(t *testing.T) {
	for _, cfg := range []struct{ r, ts int }{{10, 9}, {16, 15}} {
		tgt := TargetAFT(aftCode(t, 256, cfg.r, cfg.ts))
		tally, err := ExhaustiveKBit(tgt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tally.CERate() != 1 {
			t.Errorf("R=%d: 1b CE rate = %v, want 1 (Table 2)", cfg.r, tally.CERate())
		}
		if tally.Total != uint64(256+cfg.r) {
			t.Errorf("R=%d: total = %d", cfg.r, tally.Total)
		}
	}
}

func TestTable2DoubleBitAlwaysDetected(t *testing.T) {
	for _, cfg := range []struct{ r, ts int }{{10, 9}, {16, 15}} {
		tgt := TargetAFT(aftCode(t, 256, cfg.r, cfg.ts))
		tally, err := ExhaustiveKBit(tgt, 2)
		if err != nil {
			t.Fatal(err)
		}
		if tally.DERate() != 1 {
			t.Errorf("R=%d: 2b DE rate = %v, want 1 (Table 2)", cfg.r, tally.DERate())
		}
		// With the maximum tag size, even-weight errors are misattributed
		// as TMMs (Table 2 footnote): 2-bit errors land in the tag space.
		if tally.TMM == 0 {
			t.Errorf("R=%d: expected some 2b misattribution to TMM", cfg.r)
		}
		if tally.SDC != 0 {
			t.Errorf("R=%d: 2b SDC = %d, want 0", cfg.r, tally.SDC)
		}
	}
}

func TestTable2TripleBitSDCRegime(t *testing.T) {
	// IMT-10: paper measures 52.47% SDC for 3-bit errors; IMT-16: 4.95%.
	// Our independently-searched codes should land in the same regime.
	tgt10 := TargetAFT(aftCode(t, 256, 10, 9))
	tally10, err := ExhaustiveKBit(tgt10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s := tally10.SDCRate(); s < 0.40 || s > 0.65 {
		t.Errorf("IMT-10 3b SDC = %.4f, want ≈ 0.52 (paper: 0.5247)", s)
	}
	if tally10.CERate() != 0 {
		t.Error("3-bit errors can never be correctly corrected")
	}

	tgt16 := TargetAFT(aftCode(t, 256, 16, 15))
	tally16, err := ExhaustiveKBit(tgt16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s := tally16.SDCRate(); s < 0.005 || s > 0.12 {
		t.Errorf("IMT-16 3b SDC = %.4f, want ≈ 0.05 (paper: 0.0495)", s)
	}
	// Odd-weight errors never land in the (even) tag space.
	if tally16.TMM != 0 || tally10.TMM != 0 {
		t.Error("odd-weight errors must not be misattributed as TMMs")
	}

	// Every field at paper scale, as the scalar enumeration counted it
	// (too slow to rerun here; the conformance goldens pin k ≤ 3 on
	// IMT-16 only).
	for _, want := range []struct {
		tgt   Target
		k     int
		tally Tally
	}{
		{tgt10, 3, Tally{Total: 3101560, DUE: 1436432, SDC: 1665128}},
		{tgt10, 4, Tally{Total: 203927570, TMM: 203511288, SDC: 416282}},
		{tgt16, 3, Tally{Total: 3317040, DUE: 3107420, SDC: 209620}},
		{tgt16, 4, Tally{Total: 223070940, TMM: 223018535, SDC: 52405}},
	} {
		got, err := ExhaustiveKBit(want.tgt, want.k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.tally {
			t.Errorf("%s k=%d: %+v, want %+v", want.tgt.Name, want.k, got, want.tally)
		}
	}
}

func TestTable2RandomCorruption(t *testing.T) {
	// Analytic anchors: IMT-10 → 267/1024 ≈ 26.07% (paper 25.98%);
	// IMT-16 → 273/65536 ≈ 0.417% (paper 0.4154%).
	tgt10 := TargetAFT(aftCode(t, 256, 10, 9))
	tally := RandomErrors(tgt10, 200000, 1)
	want := AnalyticRandomSDC(256, 10, ecc.SECDED)
	if got := tally.SDCRate(); math.Abs(got-want) > 0.01 {
		t.Errorf("IMT-10 random SDC = %.4f, want ≈ %.4f", got, want)
	}
	// Roughly half the syndromes are even → TMM attribution ≈ (2^TS−1)/2^R.
	wantTMM := float64((1<<9)-1) / float64(1<<10)
	if got := tally.TMMRate(); math.Abs(got-wantTMM) > 0.01 {
		t.Errorf("IMT-10 random TMM attribution = %.4f, want ≈ %.4f", got, wantTMM)
	}

	tgt16 := TargetAFT(aftCode(t, 256, 16, 15))
	tally16 := RandomErrors(tgt16, 200000, 2)
	want16 := AnalyticRandomSDC(256, 16, ecc.SECDED)
	if got := tally16.SDCRate(); math.Abs(got-want16) > 0.002 {
		t.Errorf("IMT-16 random SDC = %.5f, want ≈ %.5f", got, want16)
	}
}

func TestTable2TagCorruptionRow(t *testing.T) {
	// Tag corrupt: 0% CE, 100% DE, 0% SDC — exhaustive for IMT-10's 9-bit
	// tag, sampled for IMT-16.
	tally := TagCorruptions(aftCode(t, 256, 10, 9), 0, 0)
	if tally.Total != 512*511 {
		t.Fatalf("exhaustive pair count = %d", tally.Total)
	}
	if tally.TMM != tally.Total {
		t.Fatalf("tag corruption: TMM %d of %d — alias-free property broken", tally.TMM, tally.Total)
	}
	sampled := TagCorruptions(aftCode(t, 256, 16, 15), 5000, 3)
	if sampled.TMM != sampled.Total || sampled.Total != 5000 {
		t.Fatalf("sampled tag corruption: %+v", sampled)
	}
}

func TestExhaustive4BitOnSmallCode(t *testing.T) {
	tgt := TargetAFT(aftCode(t, 64, 8, 5))
	tally, err := ExhaustiveKBit(tgt, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := uint64(72 * 71 * 70 * 69 / 24)
	if tally.Total != wantTotal {
		t.Fatalf("4b total = %d, want %d", tally.Total, wantTotal)
	}
	// 4-bit (even) errors: mostly detected, tiny SDC, no correct CE.
	if tally.CE != 0 {
		t.Error("4-bit errors cannot be correctly corrected")
	}
	if tally.DERate() < 0.95 {
		t.Errorf("4b DE rate = %v, want ≥ 0.95", tally.DERate())
	}
}

func TestExhaustiveKBitValidation(t *testing.T) {
	tgt := TargetAFT(aftCode(t, 64, 8, 5))
	if _, err := ExhaustiveKBit(tgt, 5); err == nil {
		t.Error("k=5 must be rejected")
	}
	if _, err := ExhaustiveKBit(tgt, 0); err == nil {
		t.Error("k=0 must be rejected")
	}
	// 2^16·C(8016,4) ≈ 1.1e19 lies between 2^63 and 2^64: a transform
	// value could wrap an int64, so the count must be refused.
	wide, err := ecc.NewHsiao(8000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tgt := TargetECC(wide); tgt.Engine() == nil {
		t.Fatal("Hsiao(8000,16) has no engine")
	} else if tally, err := ExhaustiveKBit(tgt, 4); err == nil {
		t.Errorf("n=8016, R=16, k=4: %+v, want an overflow error", tally)
	}
}

func TestECCTargetMatchesAFTWithoutTags(t *testing.T) {
	// An untagged Hsiao code and an AFT code share the data/identity
	// columns; under odd-weight (3-bit) errors the AFT code's DE+SDC
	// split must match the untagged code's (tags only absorb even
	// syndromes).
	hsiao, err := ecc.NewHsiao(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	tEcc := TargetECC(hsiao)
	tAft := TargetAFT(aftCode(t, 64, 8, 5))
	e1, err := ExhaustiveKBit(tEcc, 3)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ExhaustiveKBit(tAft, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e1.SDC != e2.SDC {
		t.Errorf("3b SDC differs: untagged %d vs AFT %d", e1.SDC, e2.SDC)
	}
	if e2.TMM != 0 {
		t.Error("odd errors should never hit the tag space")
	}
}

func TestRandomErrorsDetectOnly(t *testing.T) {
	// Detect-only codes: SDC ≈ 2^-R under random corruption.
	for _, r := range []int{2, 4, 8} {
		code, err := ecc.NewDetectOnly(64, r, int64(r))
		if err != nil {
			t.Fatal(err)
		}
		tally := RandomErrors(TargetECC(code), 100000, int64(r))
		want := AnalyticRandomSDC(64, r, ecc.DetectOnly)
		if got := tally.SDCRate(); math.Abs(got-want) > 4*math.Sqrt(want/100000)+0.002 {
			t.Errorf("R=%d detect-only random SDC = %.5f, want ≈ %.5f", r, got, want)
		}
		if tally.CE != 0 {
			t.Error("detect-only codes never correct")
		}
	}
}

func TestSDCCurveShape(t *testing.T) {
	pts, err := SDCCurve(256, 16, 40000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 16 {
		t.Fatalf("curve has %d points", len(pts))
	}
	// Figure 9's headline: roughly 2× lower SDC per extra check bit.
	for i := 1; i < 8; i++ {
		ratio := pts[i-1].RandomSDC / pts[i].RandomSDC
		if ratio < 1.4 || ratio > 2.8 {
			t.Errorf("detect-only R=%d→%d SDC ratio = %.2f, want ≈ 2", pts[i-1].R, pts[i].R, ratio)
		}
	}
	// Correcting codes start at R=9 and carry 3-bit results.
	for _, p := range pts {
		if p.R <= 8 {
			if p.Kind != ecc.DetectOnly || p.HasThreeBit {
				t.Errorf("R=%d should be detect-only without 3b data", p.R)
			}
		} else if !p.HasThreeBit {
			t.Errorf("R=%d should carry 3-bit data", p.R)
		}
	}
	// SEC-DED random SDC halves per bit too (miscorrection-dominated).
	for i := 10; i < 16; i++ {
		ratio := pts[i-1].RandomSDC / pts[i].RandomSDC
		if ratio < 1.4 || ratio > 2.8 {
			t.Errorf("SEC-DED R=%d→%d SDC ratio = %.2f, want ≈ 2", pts[i-1].R, pts[i].R, ratio)
		}
	}
	// Footnote 7: the R=9 SEC code's 3-bit SDC is no worse than R=10's.
	if pts[8].ThreeBitSDC > pts[9].ThreeBitSDC*1.2 {
		t.Errorf("R=9 SEC 3b SDC %.4f should not exceed R=10 SEC-DED %.4f by much",
			pts[8].ThreeBitSDC, pts[9].ThreeBitSDC)
	}
}

func TestStealingAmplificationMatchesTable1(t *testing.T) {
	cases := []struct {
		fullR, stolen int
		want, tol     float64
	}{
		{16, 4, 15.76, 0.1},  // SPARC-ADI-like
		{10, 9, 1.917, 0.01}, // iso-security-10
		{16, 15, 120.0, 0.5}, // iso-security-16
	}
	for _, c := range cases {
		got := StealingSDCAmplification(256, c.fullR, c.stolen)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("steal %d of %d: amplification = %.3f, want %.3f", c.stolen, c.fullR, got, c.want)
		}
	}
	if StealingSDCAmplification(256, 10, 10) != 0 {
		t.Error("stealing every bit leaves no code")
	}
}

func TestTallyArithmetic(t *testing.T) {
	var tally Tally
	tally = tally.Add(OutcomeCE)
	tally = tally.Add(OutcomeDUE)
	tally = tally.Add(OutcomeTMM)
	tally = tally.Add(OutcomeSDC)
	tally = tally.Add(OutcomeOK)
	if tally.Total != 5 || tally.CE != 1 || tally.DUE != 1 || tally.TMM != 1 || tally.SDC != 1 {
		t.Fatalf("tally = %+v", tally)
	}
	if tally.DE() != 2 {
		t.Error("DE() should sum DUE and TMM")
	}
	if tally.CERate() != 0.2 || tally.SDCRate() != 0.2 || tally.DERate() != 0.4 {
		t.Error("rates wrong")
	}
	if tally.String() == "" {
		t.Error("empty String")
	}
	if (Tally{}).CERate() != 0 {
		t.Error("empty tally rates should be 0")
	}
}

func TestRandomErrorsParallelMatchesSerialStatistically(t *testing.T) {
	tgt := TargetAFT(aftCode(t, 256, 10, 9))
	serial := RandomErrors(tgt, 100000, 1)
	parallel := RandomErrorsParallel(tgt, 100000, 4, 1)
	if parallel.Total != 100000 {
		t.Fatalf("parallel total = %d", parallel.Total)
	}
	if math.Abs(serial.SDCRate()-parallel.SDCRate()) > 0.01 {
		t.Errorf("parallel SDC %.4f vs serial %.4f", parallel.SDCRate(), serial.SDCRate())
	}
	// Degenerate worker counts fall back to the serial path.
	if RandomErrorsParallel(tgt, 100, 1, 2).Total != 100 {
		t.Error("workers=1 fallback broken")
	}
}
