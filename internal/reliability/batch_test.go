package reliability

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ecc/bitslice"
)

func testTargets(t *testing.T) []Target {
	t.Helper()
	var out []Target
	out = append(out, TargetECC(ecc.NewParity(32)))
	sec, err := ecc.NewSEC(32, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, TargetECC(sec))
	det, err := ecc.NewDetectOnly(32, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, TargetECC(det))
	h64, err := ecc.NewHsiao(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, TargetECC(h64))
	aft, err := core.NewCode(64, 8, 5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, TargetAFT(aft))
	return out
}

// TestExhaustiveKBitMatchesScalar: the transform's tallies equal the
// scalar enumeration's for every family.
func TestExhaustiveKBitMatchesScalar(t *testing.T) {
	for _, target := range testTargets(t) {
		if target.Engine() == nil {
			t.Fatalf("%s: no bitsliced engine", target.Name)
		}
		for k := 1; k <= 4; k++ {
			got, err := ExhaustiveKBit(target, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ExhaustiveKBitScalar(target, k)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s k=%d: bitsliced %+v != scalar %+v", target.Name, k, got, want)
			}
		}
	}
}

// FuzzExhaustiveKBit: on a random target the transform's tallies equal
// the scalar enumeration's for k = 1..4. A target has R = 1..12 rows and
// up to 40 columns, zeros and duplicates among them; shape bit 0 adds a
// tag span, bits 1–2 make none, some or all of the columns correctable,
// and bit 3 gives them ClassZero, as the tag engine does.
func FuzzExhaustiveKBit(f *testing.F) {
	f.Add(uint8(7), uint8(30), uint8(0b0101), int64(1))
	f.Add(uint8(3), uint8(12), uint8(0b0010), int64(2))
	f.Add(uint8(11), uint8(39), uint8(0b1101), int64(3))
	f.Add(uint8(0), uint8(5), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, r8, n8, shape uint8, seed int64) {
		r := 1 + int(r8)%12
		n := 1 + int(n8)%40
		rng := rand.New(rand.NewSource(seed))
		draw := func() uint64 { return rng.Uint64() & (1<<uint(r) - 1) }
		cols := make([]uint64, n)
		for i := range cols {
			switch x := rng.Intn(8); {
			case x == 0:
				// a zero column
			case x == 1 && i > 0:
				cols[i] = cols[rng.Intn(i)]
			default:
				cols[i] = draw()
			}
		}
		spec := bitslice.TableSpec{R: r, CorrClass: bitslice.ClassCorrectable}
		if shape&1 != 0 {
			for i := rng.Intn(r) + 1; i > 0; i-- {
				spec.Tag = append(spec.Tag, draw())
			}
		}
		switch shape >> 1 & 3 {
		case 1:
			for _, c := range cols {
				if rng.Intn(2) == 0 {
					spec.Corr = append(spec.Corr, c)
				}
			}
		case 2, 3:
			spec.Corr = cols
		}
		if shape&8 != 0 {
			spec.CorrClass = bitslice.ClassZero
		}
		target := newTarget("fuzz", cols, spec)
		for k := 1; k <= 4; k++ {
			got, err := ExhaustiveKBit(target, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ExhaustiveKBitScalar(target, k)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("R=%d n=%d shape=%#x k=%d: transform %+v != scalar %+v", r, n, shape, k, got, want)
			}
		}
	})
}

// TestRandomErrorsChunkSum: a 64k-injection campaign equals the sum of
// its chunks under any contiguous partition (including ragged,
// non-batch-aligned boundaries).
func TestRandomErrorsChunkSum(t *testing.T) {
	h64, err := ecc.NewHsiao(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	target := TargetECC(h64)
	const trials = 65536
	const seed = 777
	whole := RandomErrors(target, trials, seed)
	if whole.Total != trials {
		t.Fatalf("total = %d, want %d", whole.Total, trials)
	}
	for _, cuts := range [][]int{
		{trials},
		{1, 63, 64, 65, 1000, trials - 1193},
		{32768, 32768},
		{17, 4096, 61423},
	} {
		var sum Tally
		off := 0
		for _, n := range cuts {
			sum = sum.sum(RandomErrorsOffset(target, n, seed, off))
			off += n
		}
		if off != trials {
			t.Fatalf("bad partition %v", cuts)
		}
		if sum != whole {
			t.Errorf("partition %v: sum %+v != whole %+v", cuts, sum, whole)
		}
	}
}

// TestRandomErrorsChunkSumEngineless: the engine's campaign equals an
// engine-free scalar replay of the same per-batch SplitMix64 plane
// stream (replayRandomErrors), and its partitions and worker splits sum
// to the whole. The targets have even and odd plane counts (72, 65, 73
// and IMT-16's 272), so a plane fill that mishandles an odd tail fails
// here.
func TestRandomErrorsChunkSumEngineless(t *testing.T) {
	h64, err := ecc.NewHsiao(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := ecc.NewSEC(64, 9, 1234)
	if err != nil {
		t.Fatal(err)
	}
	imt16, err := core.NewCode(256, 16, 15, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 10_000
	const seed = 99
	for _, target := range []Target{TargetECC(h64), TargetECC(ecc.NewParity(64)), TargetECC(sec), TargetAFT(imt16)} {
		whole := RandomErrors(target, trials, seed)
		if whole.Total != trials {
			t.Fatalf("%s: total = %d, want %d", target.Name, whole.Total, trials)
		}
		if replay := replayRandomErrors(target, trials, seed); replay != whole {
			t.Errorf("%s: scalar replay %+v != engine %+v", target.Name, replay, whole)
		}
		for _, cuts := range [][]int{
			{17, 4096, trials - 17 - 4096},
			{1, 63, 64, 65, trials - 193},
		} {
			var sum Tally
			off := 0
			for _, n := range cuts {
				sum = sum.sum(RandomErrorsOffset(target, n, seed, off))
				off += n
			}
			if sum != whole {
				t.Errorf("%s: partition %v: sum %+v != whole %+v", target.Name, cuts, sum, whole)
			}
		}
		for _, workers := range []int{1, 3, 8} {
			if got := RandomErrorsParallel(target, trials, workers, seed); got != whole {
				t.Errorf("%s: workers=%d: %+v != whole %+v", target.Name, workers, got, whole)
			}
		}
	}
}

// replayRandomErrors is RandomErrors without the engine: batch b draws
// one plane word per physical bit from SeedForBatch(seed, b), as
// Batch.Random does, and lane L's pattern is bit L of each plane, whose
// syndrome is the XOR of its columns and whose class is Table.Class.
func replayRandomErrors(t Target, trials int, seed int64) Tally {
	planes := make([]uint64, t.NPhys)
	var tally Tally
	for bi := 0; bi*64 < trials; bi++ {
		rng := bitslice.NewRand(bitslice.SeedForBatch(seed, uint64(bi)))
		for i := range planes {
			planes[i] = rng.Uint64()
		}
		for lane := 0; lane < min(64, trials-bi*64); lane++ {
			var s uint64
			weight := 0
			for i, p := range planes {
				if p>>uint(lane)&1 == 1 {
					s ^= t.cols[i]
					weight++
				}
			}
			tally = tally.Add(outcome(t.table.Class(s), weight))
		}
	}
	return tally
}

// TestRandomErrorsParallelWorkerIndependent: identical tallies for any
// worker count — the reproducibility contract SDCCurve now documents.
func TestRandomErrorsParallelWorkerIndependent(t *testing.T) {
	for _, target := range testTargets(t) {
		base := RandomErrorsParallel(target, 20_000, 1, 42)
		for _, workers := range []int{2, 3, 7, 8} {
			got := RandomErrorsParallel(target, 20_000, workers, 42)
			if got != base {
				t.Errorf("%s: workers=%d tally %+v != workers=1 %+v", target.Name, workers, got, base)
			}
		}
	}
}

// TestSDCCurveWorkersRegression pins the curve at workers=1 against
// 2, 3 and 8 pool workers — the reproducibility footgun it guards
// against is SDCCurve tallies that depend on GOMAXPROCS. 20 001 trials
// is not a multiple of the pool's item size, so each R point ends in a
// short item and a partial batch.
func TestSDCCurveWorkersRegression(t *testing.T) {
	const trials = 20_001
	if trials%itemTrials == 0 {
		t.Fatalf("trials %d is a multiple of the pool item size", trials)
	}
	one, err := SDCCurveWorkers(64, 12, trials, 1234, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := SDCCurveWorkers(64, 12, trials, 1234, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(one) {
			t.Fatalf("workers=%d: point count %d != %d", workers, len(got), len(one))
		}
		for i := range one {
			if one[i] != got[i] {
				t.Errorf("R=%d: workers=1 %+v != workers=%d %+v", one[i].R, one[i], workers, got[i])
			}
		}
	}
	for _, p := range one {
		if p.RandomTrials != trials {
			t.Errorf("R=%d ran %d trials, want %d", p.R, p.RandomTrials, trials)
		}
	}
}

// TestSDCCurveWorkersMaxRBounds: a maxR outside [1, bitslice.MaxR]
// is an error naming the bound, returned before any code is built
// (R = 17 would otherwise panic in TargetECC, on a pool goroutine).
func TestSDCCurveWorkersMaxRBounds(t *testing.T) {
	for _, maxR := range []int{0, -1, bitslice.MaxR + 1} {
		for _, workers := range []int{1, 2} {
			pts, err := SDCCurveWorkers(64, maxR, 1000, 1234, workers)
			if err == nil || !strings.Contains(err.Error(), "bitslice.MaxR") {
				t.Errorf("maxR=%d workers=%d: got %d points, err %v; want an error naming bitslice.MaxR", maxR, workers, len(pts), err)
			}
		}
	}
	pts, err := SDCCurveWorkers(64, bitslice.MaxR, 64, 1234, 2)
	if err != nil || len(pts) != bitslice.MaxR {
		t.Errorf("maxR=MaxR: %d points, err %v", len(pts), err)
	}
}

// TestSDCCurveWorkersFirstBuildError: when several curve codes fail
// to build, the error returned is the smallest R's on every worker
// count, although the pool builds the largest R first. At K = 600 the
// R = 9 SEC code and the R = 10 Hsiao code fail (R = 11 has 1013
// odd-weight columns of weight ≥ 3, enough for 600); at K = 2100 every
// correcting code up to R = 12 fails.
func TestSDCCurveWorkersFirstBuildError(t *testing.T) {
	for _, tc := range []struct{ k, lastBad int }{{600, 10}, {2100, 12}} {
		for r := 1; r <= 12; r++ {
			_, _, err := curvePoint(tc.k, r, 1234)
			if bad := r >= 9 && r <= tc.lastBad; (err != nil) != bad {
				t.Fatalf("K=%d R=%d: build error %v, want one: %v", tc.k, r, err, bad)
			}
		}
		for _, workers := range []int{1, 2, 8} {
			pts, err := SDCCurveWorkers(tc.k, 12, 1000, 1234, workers)
			if err == nil || !strings.Contains(err.Error(), "R=9:") {
				t.Errorf("K=%d workers=%d: got %d points, err %v; want R=9's build error", tc.k, workers, len(pts), err)
			}
		}
	}
}

// TestTagCorruptionsExhaustiveMatchesScalar: the tag-difference
// multiplicity enumeration is bit-identical to the full lock/key pair
// loop.
func TestTagCorruptionsExhaustiveMatchesScalar(t *testing.T) {
	for _, geom := range []struct{ k, r, ts int }{{64, 8, 5}, {256, 10, 9}} {
		c, err := core.NewCode(geom.k, geom.r, geom.ts, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := TagCorruptions(c, 0, 1)
		want := TagCorruptionsScalar(c, 0, 1)
		if got != want {
			t.Errorf("TS=%d: difference enumeration %+v != pair enumeration %+v", geom.ts, got, want)
		}
		space := uint64(1) << uint(geom.ts)
		if got.Total != space*(space-1) {
			t.Errorf("TS=%d: total %d != pair count %d", geom.ts, got.Total, space*(space-1))
		}
	}
}

// TestTagCorruptionsSampledDeterministic: sampled tag campaigns are a
// pure function of (code, limit, seed), and for a verified construction
// remain 100% TMM.
func TestTagCorruptionsSampledDeterministic(t *testing.T) {
	c, err := core.NewCode(256, 16, 15, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := TagCorruptions(c, 20_000, 42)
	b := TagCorruptions(c, 20_000, 42)
	if a != b {
		t.Fatalf("same seed gave %+v then %+v", a, b)
	}
	if a.Total != 20_000 || a.TMM != 20_000 {
		t.Fatalf("IMT-16 sampled tag corruptions must be all-TMM: %+v", a)
	}
}

// TestTagCorruptionsWorkerIndependent: the sampled tag campaign fans
// out over GOMAXPROCS workers, and its tally does not depend on how
// many. 20 001 trials end in a partial 64-lane batch.
func TestTagCorruptionsWorkerIndependent(t *testing.T) {
	const limit = 20_001
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []*core.Code{aftCode(t, 256, 16, 15), aliasingAFTCode(t, 256, 10, 9)} {
		runtime.GOMAXPROCS(1)
		want := TagCorruptions(c, limit, 42)
		if want.Total != limit {
			t.Fatalf("%s: total %d != limit %d", c, want.Total, limit)
		}
		for _, procs := range []int{3, 4} {
			runtime.GOMAXPROCS(procs)
			if got := TagCorruptions(c, limit, 42); got != want {
				t.Errorf("%s: GOMAXPROCS=%d tally %+v != GOMAXPROCS=1 %+v", c, procs, got, want)
			}
		}
	}
}

// aliasingAFTCode builds a deliberately aliasing tagged code: the
// Equation 6 staircase with tag column 0 replaced by the code's first
// data column, so some tag mismatches decode as "correctable"
// single-bit data errors — the silent corruption AFT-ECC exists to rule
// out. core.Verify must flag the construction.
func aliasingAFTCode(t *testing.T, k, r, ts int) *core.Code {
	t.Helper()
	base, err := core.NewCode(k, r, ts, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tag := base.TagMatrix()
	tag.SetCol(0, base.Column(ts)) // first data column
	c, err := core.NewCode(k, r, ts, core.Options{TagMatrix: tag, AllowAlias: true})
	if err != nil {
		t.Fatal(err)
	}
	if p := core.Verify(c); p.SECPreserved {
		t.Fatal("construction was supposed to alias")
	}
	return c
}

// TestTagCorruptionsAliasingDifferential: on a deliberately aliasing
// construction, the sampled (bitsliced) tag campaign agrees with the
// scalar pair sampler in distribution and with the exhaustive
// enumeration, conserves its buckets, and reports the aliases as SDC —
// the silent-corruption events the engine path must never drop.
func TestTagCorruptionsAliasingDifferential(t *testing.T) {
	c := aliasingAFTCode(t, 256, 10, 9)
	exact := TagCorruptionsScalar(c, 0, 1)
	if exact.SDC == 0 {
		t.Fatal("aliasing construction must produce silent corruption exhaustively")
	}
	if gotEx := TagCorruptions(c, 0, 1); gotEx != exact {
		t.Errorf("exhaustive difference enumeration %+v != pair enumeration %+v", gotEx, exact)
	}

	const limit = 100_000
	got := TagCorruptions(c, limit, 7)
	if got.Total != limit {
		t.Fatalf("total %d != limit %d", got.Total, limit)
	}
	if got.CE+got.DUE+got.TMM+got.SDC != got.Total {
		t.Fatalf("buckets do not sum to total: %+v", got)
	}
	if got.SDC == 0 {
		t.Fatal("sampled engine path dropped the aliased lanes")
	}
	want := TagCorruptionsScalar(c, limit, 8)
	for name, d := range map[string]float64{
		"SDC vs scalar":     got.SDCRate() - want.SDCRate(),
		"TMM vs scalar":     got.TMMRate() - want.TMMRate(),
		"DE vs scalar":      got.DERate() - want.DERate(),
		"SDC vs exhaustive": got.SDCRate() - exact.SDCRate(),
	} {
		if math.Abs(d) > 0.01 {
			t.Errorf("%s: |Δ| = %v beyond tolerance (sampled %+v, scalar %+v, exhaustive %+v)",
				name, d, got, want, exact)
		}
	}
}

// TestRandomErrorsMatchesScalarStatistically: the SplitMix64 batched
// campaign agrees with the math/rand scalar reference in distribution
// and with the analytic SDC rate.
func TestRandomErrorsMatchesScalarStatistically(t *testing.T) {
	h64, err := ecc.NewHsiao(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	target := TargetECC(h64)
	const trials = 500_000
	a := RandomErrors(target, trials, 1)
	b := RandomErrorsScalar(target, trials, 2)
	analytic := AnalyticRandomSDC(64, 8, ecc.SECDED)
	for name, d := range map[string]float64{
		"bitsliced vs scalar SDC": a.SDCRate() - b.SDCRate(),
		"bitsliced vs analytic":   a.SDCRate() - analytic,
		"bitsliced vs scalar DE":  a.DERate() - b.DERate(),
	} {
		if math.Abs(d) > 0.005 {
			t.Errorf("%s: |Δ| = %v beyond tolerance (%+v vs %+v)", name, d, a, b)
		}
	}
}

func TestWilson(t *testing.T) {
	lo, hi := Wilson(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("no trials: want the vacuous interval [0,1], got [%v,%v]", lo, hi)
	}
	lo, hi = Wilson(50, 100, 1.96)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Errorf("p=0.5 interval [%v,%v] must contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("interval [%v,%v] too wide for n=100", lo, hi)
	}
	// Extremes stay inside [0,1] and remain nondegenerate.
	lo, hi = Wilson(0, 1000, 1.96)
	if lo != 0 || hi <= 0 || hi > 0.01 {
		t.Errorf("0/1000 interval [%v,%v]", lo, hi)
	}
	lo, hi = Wilson(1000, 1000, 1.96)
	if hi != 1 || lo >= 1 || lo < 0.99 {
		t.Errorf("1000/1000 interval [%v,%v]", lo, hi)
	}
	// Width shrinks like 1/sqrt(n).
	lo1, hi1 := Wilson(100, 10_000, 1.96)
	lo2, hi2 := Wilson(10_000, 1_000_000, 1.96)
	if (hi2 - lo2) >= (hi1-lo1)/5 {
		t.Errorf("interval must tighten with n: n=1e4 width %v, n=1e6 width %v", hi1-lo1, hi2-lo2)
	}
}
