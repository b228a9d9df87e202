package reliability

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/ecc"
	"repro/internal/ecc/bitslice"
)

// CurvePoint is one point of the Figure 9 sweep: the SDC probability of a
// K-data-bit code with R check bits under random corruption and (for
// correcting codes) exhaustive 3-bit errors.
type CurvePoint struct {
	R    int
	Kind ecc.Kind
	// RandomSDC is the silent-corruption probability under uniformly
	// random corruption.
	RandomSDC float64
	// RandomSDCLow/High bound RandomSDC with the 95% Wilson score
	// interval over RandomTrials Monte-Carlo samples.
	RandomSDCLow  float64
	RandomSDCHigh float64
	RandomTrials  uint64
	// ThreeBitSDC is the SDC probability over every 3-bit error pattern,
	// counted exactly by ExhaustiveKBit. Only the correcting codes have
	// one, as in the paper's figure: HasThreeBit is false, and
	// ThreeBitSDC 0, for the detect-only points.
	ThreeBitSDC float64
	HasThreeBit bool
}

// SDCCurve reproduces the Figure 9 methodology for K data bits and
// redundancies 1..maxR: detect-only codes up to R=8, a SEC code at R=9,
// and SEC-DED codes from R=10 (matching the paper's sweep for K=256,
// where R=9 is the first SEC-capable and R=10 the first SEC-DED-capable
// redundancy). Random corruption uses `trials` samples; 3-bit errors are
// exhaustive.
//
// It runs on GOMAXPROCS workers (see SDCCurveWorkers). Since the
// batched injector derives every 64-lane batch's stream from (seed,
// batch index) alone, the result is identical for every worker count —
// SDCCurve(k, maxR, trials, seed) equals SDCCurveWorkers(..., w) for
// all w. Callers that want explicit control of the pool size (or CPU
// budget) should still use SDCCurveWorkers.
func SDCCurve(k, maxR, trials int, seed int64) ([]CurvePoint, error) {
	return SDCCurveWorkers(k, maxR, trials, seed, runtime.GOMAXPROCS(0))
}

// SDCCurveWorkers is SDCCurve with an explicit worker count. maxR must
// lie in [1, bitslice.MaxR]. It runs in two pool passes of up to
// `workers` goroutines each: the first builds every R point's code and
// injection target and counts its 3-bit errors by transform, largest R
// (the costliest) first; the second runs all the points' random
// campaigns on one runCampaigns pool with one join. If a code fails to
// build, the error of the smallest such R is returned, whichever
// goroutine met it first. The tallies are a function of (k, maxR,
// trials, seed) only: the deterministic per-batch seed splitting makes
// every worker count produce bit-identical curves on every machine (a
// regression test pins workers=1 against 2, 3 and 8).
func SDCCurveWorkers(k, maxR, trials int, seed int64, workers int) ([]CurvePoint, error) {
	if maxR < 1 || maxR > bitslice.MaxR {
		return nil, fmt.Errorf("reliability: maxR = %d outside [1, bitslice.MaxR = %d]", maxR, bitslice.MaxR)
	}
	out := make([]CurvePoint, maxR)
	targets := make([]Target, maxR)
	errs := make([]error, maxR)
	forEach(workers, maxR, func(_, i int) {
		r := maxR - i
		out[r-1], targets[r-1], errs[r-1] = curvePoint(k, r, seed)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	random := make([]*campaign, maxR)
	for i := range random {
		r := i + 1
		random[i] = &campaign{target: &targets[i], seed: seed + int64(100+r), trials: trials}
	}
	runCampaigns(workers, random...)
	for i, c := range random {
		pt := &out[i]
		pt.RandomSDC = c.tally.SDCRate()
		pt.RandomSDCLow, pt.RandomSDCHigh = Wilson(c.tally.SDC, c.tally.Total, 1.96)
		pt.RandomTrials = c.tally.Total
	}
	return out, nil
}

// curvePoint builds the curve's R = r code and its injection target,
// and fills in the point's exhaustive 3-bit rate if the code corrects.
func curvePoint(k, r int, seed int64) (CurvePoint, Target, error) {
	var (
		code *ecc.Code
		err  error
	)
	switch {
	case r >= 10:
		code, err = ecc.NewHsiao(k, r)
	case r == 9:
		code, err = ecc.NewSEC(k, r, seed)
	case r == 1:
		code = ecc.NewParity(k)
	default:
		code, err = ecc.NewDetectOnly(k, r, seed+int64(r))
	}
	if err != nil {
		return CurvePoint{}, Target{}, fmt.Errorf("reliability: R=%d: %w", r, err)
	}
	t := TargetECC(code)
	pt := CurvePoint{R: r, Kind: code.Kind()}
	if code.Kind() != ecc.DetectOnly {
		three, err := ExhaustiveKBit(t, 3)
		if err != nil {
			return CurvePoint{}, Target{}, fmt.Errorf("reliability: R=%d: %w", r, err)
		}
		pt.ThreeBitSDC, pt.HasThreeBit = three.SDCRate(), true
	}
	return pt, t, nil
}

// Wilson returns the Wilson score interval for a binomial proportion:
// `successes` out of `trials` at critical value z (1.96 for 95%). It is
// well-behaved at the extremes (0 or trials successes) where the normal
// approximation collapses — exactly the regime of SDC rates around
// 1e-5 that the high-trial Figure 9 mode reports.
func Wilson(successes, trials uint64, z float64) (lo, hi float64) {
	if trials == 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := p + z2/(2*n)
	spread := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = (center - spread) / denom
	hi = (center + spread) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// AnalyticRandomSDC returns the closed-form random-corruption SDC
// probability used as a test oracle:
//
//   - detect-only: 2^-R (only the zero syndrome aliases);
//   - correcting codes: (N+1)/2^R (zero syndrome plus N miscorrecting
//     column syndromes — a uniformly random error yields a uniformly
//     random syndrome).
func AnalyticRandomSDC(k, r int, kind ecc.Kind) float64 {
	total := float64(uint64(1) << uint(r))
	if kind == ecc.DetectOnly {
		return 1 / total
	}
	return float64(k+r+1) / total
}

// StealingSDCAmplification returns the paper's "Added SDC Risk" factor:
// the random-corruption SDC probability of the post-stealing code relative
// to the full-redundancy SEC-DED baseline (e.g. stealing 4 of 16 bits →
// ≈15.8×; stealing down to 1 parity bit from 16 → 120×).
func StealingSDCAmplification(k, fullR, stolenBits int) float64 {
	remaining := fullR - stolenBits
	baseline := AnalyticRandomSDC(k, fullR, ecc.SECDED)
	var stolen float64
	switch {
	case remaining <= 0:
		return 0 // nothing left: no code, risk undefined here
	case remaining < 9:
		stolen = AnalyticRandomSDC(k, remaining, ecc.DetectOnly)
	default:
		stolen = AnalyticRandomSDC(k, remaining, ecc.SECDED)
	}
	return stolen / baseline
}
