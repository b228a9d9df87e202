package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/reliability"
)

// One fault-campaign round runs each campaign once at these fixed trial
// counts, about 35 ms on two workers; rounds repeat until the run's time
// is up, each from its own seed.
const (
	curveK       = 64
	curveMaxR    = 12
	curveTrials  = 48_000  // per curve code, R = 1..curveMaxR
	randomTrials = 384_000 // random corruptions of the IMT-16 AFT code
	tagTrials    = 192_000 // lock/key mismatches on the IMT-16 AFT code
	prefixTrials = 20_000  // seeded prefix compared with the scalar references
	setupRepeats = 31
	faultWindow  = time.Second
	imt16Data    = 256
	imt16Redund  = 16
	imt16TagBits = 15
)

// imt16 is the paper-scale IMT-16 AFT-ECC code and its injection target.
type imt16 struct {
	code   *core.Code
	target reliability.Target
}

func newIMT16() (imt16, error) {
	code, err := core.NewCode(imt16Data, imt16Redund, imt16TagBits, core.Options{})
	if err != nil {
		return imt16{}, err
	}
	return imt16{code, reliability.TargetAFT(code)}, nil
}

// round is one pass of the three campaigns.
type round struct {
	curve, random, tag time.Duration
	curveInj           uint64 // random trials plus exhaustive 3-bit patterns
	ok                 bool
}

func (r round) total() time.Duration { return r.curve + r.random + r.tag }
func (r round) injections() uint64   { return r.curveInj + randomTrials + tagTrials }

// runRound runs the K=64 SDC curve (reliability.SDCCurveWorkers), a
// random-corruption campaign on IMT-16 (RandomErrorsParallel) and a
// tag-corruption campaign (TagCorruptions), and checks that every tally
// sums to its trial count and that no lock/key mismatch aliased.
func (b *bench) runRound(c imt16, seed int64) (round, error) {
	var r round
	t0 := time.Now()
	pts, err := reliability.SDCCurveWorkers(curveK, curveMaxR, curveTrials, seed, maxConns)
	r.curve = time.Since(t0)
	if err != nil {
		return r, fmt.Errorf("SDC curve: %w", err)
	}
	t0 = time.Now()
	rnd := reliability.RandomErrorsParallel(c.target, randomTrials, maxConns, seed)
	r.random = time.Since(t0)
	t0 = time.Now()
	tag := reliability.TagCorruptions(c.code, tagTrials, seed)
	r.tag = time.Since(t0)

	r.ok = len(pts) == curveMaxR
	for _, p := range pts {
		r.curveInj += p.RandomTrials
		if p.RandomTrials != curveTrials {
			b.mismatch("curve R=%d ran %d trials, want %d", p.R, p.RandomTrials, curveTrials)
			r.ok = false
		}
		if p.HasThreeBit {
			r.curveInj += binomial3(curveK + p.R)
		}
	}
	if !tallySums(rnd, randomTrials) {
		b.mismatch("IMT-16 random tally %+v does not sum to %d trials", rnd, randomTrials)
		r.ok = false
	}
	if !tallySums(tag, tagTrials) || tag.TMM != tagTrials {
		b.mismatch("IMT-16 tag tally %+v: want all %d mismatches detected as TMM", tag, tagTrials)
		r.ok = false
	}
	return r, nil
}

// tallySums: the outcome classes never exceed the trials, and Total
// is the trial count (clean lanes count toward Total only).
func tallySums(t reliability.Tally, trials uint64) bool {
	return t.Total == trials && t.CE+t.DUE+t.TMM+t.SDC <= t.Total
}

func binomial3(n int) uint64 {
	return uint64(n) * uint64(n-1) * uint64(n-2) / 6
}

// runFaultCampaign is the Fig 9 / §5.4 path through ecc/bitslice, in
// process with maxConns workers. It shares no code with the serving
// workloads. An op is one round (plus the three reference checks); the
// latency percentiles are over round times.
func runFaultCampaign(b *bench) error {
	c, err := timedSetup(b, setupRepeats, func(string) (imt16, error) {
		return newIMT16()
	}, func(imt16) error { return nil })
	if err != nil {
		return err
	}
	if err := b.checkScalarPrefix(c); err != nil {
		return err
	}
	// Rounds are grouped into windows of about faultWindow, each with the
	// host's steal share over it; the figures come from the quieter half
	// of windows, as in hot-sim. Both workers are busy throughout, so a
	// stolen vCPU holds up the whole round.
	var (
		windows [][]round
		steal   []float64
		cur     []round
		n       int
	)
	meter := newStealMeter()
	winStart := time.Now()
	deadline := winStart.Add(time.Duration(b.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		if err := b.ctx.Err(); err != nil {
			return err
		}
		span := b.spans.begin("fault-campaign.round", fmt.Sprintf("round-%d", n), 0)
		r, err := b.runRound(c, b.rng.Int63())
		b.spans.end(span)
		if err != nil {
			return err
		}
		b.op(r.ok)
		n++
		cur = append(cur, r)
		if time.Since(winStart) >= faultWindow || !time.Now().Before(deadline) {
			windows, steal, cur = append(windows, cur), append(steal, meter.next()), nil
			winStart = time.Now()
		}
	}
	idx := make([]int, len(windows))
	for i := range idx {
		idx[i] = i
	}
	quiet := quieterHalf(idx, steal)
	var (
		times []float64
		inj   uint64
		busy  time.Duration
	)
	for _, k := range quiet {
		for _, r := range windows[k] {
			times = append(times, float64(r.total())/float64(time.Millisecond))
			inj += r.injections()
			busy += r.total()
		}
	}
	rss, err := readVmHWM("/proc/self/status")
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", rss, "MB", "benchmark process VmHWM (the campaign runs in it)")
	note := fmt.Sprintf("the %d quieter of %d windows, %d of %d rounds on %d workers", len(quiet), len(windows), len(times), n, maxConns)
	b.set("ops_per_s", float64(inj)/busy.Seconds(), "1/s", "injections/s over "+note)
	b.set("p50_ms", percentile(times, 50), "ms", "round time over "+note)
	b.set("p95_ms", percentile(times, 95), "ms", "round time over "+note)
	if !supportsPercentile(len(times), 95) {
		fmt.Fprintf(os.Stderr, "perfbench: %d rounds are too few for a p95\n", len(times))
	}
	return nil
}

// checkScalarPrefix compares a seeded prefix of each engine with its
// scalar reference: exhaustive 2-bit errors and sampled tag corruptions
// must match exactly; random corruptions, whose scalar reference draws
// from a different generator by design, must agree in every outcome
// rate within six standard errors. Each comparison is one op.
func (b *bench) checkScalarPrefix(c imt16) error {
	fast, err := reliability.ExhaustiveKBit(c.target, 2)
	if err != nil {
		return err
	}
	slow, err := reliability.ExhaustiveKBitScalar(c.target, 2)
	if err != nil {
		return err
	}
	if fast != slow {
		b.mismatch("exhaustive 2-bit: bitsliced %+v, scalar %+v", fast, slow)
	}
	b.op(fast == slow)

	seed := b.rng.Int63()
	tagFast := reliability.TagCorruptions(c.code, prefixTrials, seed)
	tagSlow := reliability.TagCorruptionsScalar(c.code, prefixTrials, seed)
	if tagFast != tagSlow {
		b.mismatch("tag corruptions: bitsliced %+v, scalar %+v", tagFast, tagSlow)
	}
	b.op(tagFast == tagSlow)

	rndFast := reliability.RandomErrors(c.target, prefixTrials, seed)
	rndSlow := reliability.RandomErrorsScalar(c.target, prefixTrials, seed)
	ok := tallySums(rndFast, prefixTrials) && tallySums(rndSlow, prefixTrials)
	for _, pair := range [][2]uint64{{rndFast.CE, rndSlow.CE}, {rndFast.DE(), rndSlow.DE()}, {rndFast.TMM, rndSlow.TMM}, {rndFast.SDC, rndSlow.SDC}} {
		p := float64(pair[0]+pair[1]) / (2 * prefixTrials)
		se := math.Sqrt(p * (1 - p) * 2 / prefixTrials)
		if diff := math.Abs(float64(pair[0])-float64(pair[1])) / prefixTrials; diff > 6*se+1e-12 {
			ok = false
		}
	}
	if !ok {
		b.mismatch("random corruptions: bitsliced %v, scalar %v", rndFast, rndSlow)
	}
	b.op(ok)
	return nil
}
