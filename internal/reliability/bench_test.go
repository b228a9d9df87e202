package reliability

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ecc/bitslice"
)

// curveK64Codes are the R=1..12 codes of the K=64 Figure 9 curve, as
// SDCCurve builds them for seed 1234.
func curveK64Codes(tb testing.TB) []*ecc.Code {
	tb.Helper()
	var out []*ecc.Code
	for r := 1; r <= 12; r++ {
		var (
			code *ecc.Code
			err  error
		)
		switch {
		case r >= 10:
			code, err = ecc.NewHsiao(64, r)
		case r == 9:
			code, err = ecc.NewSEC(64, r, 1234)
		case r == 1:
			code = ecc.NewParity(64)
		default:
			code, err = ecc.NewDetectOnly(64, r, 1234+int64(r))
		}
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, code)
	}
	return out
}

// curveK64Targets wraps the curve codes: their random corruption
// campaigns are the Monte-Carlo half of the K=64 Figure 9 campaign, the
// part the bitsliced engine accelerates. The 3-bit half is counted by
// ExhaustiveKBit's transform (BenchmarkExhaustiveKBitIMT16 times it).
func curveK64Targets(b *testing.B) []Target {
	b.Helper()
	var out []Target
	for _, code := range curveK64Codes(b) {
		out = append(out, TargetECC(code))
	}
	return out
}

const benchCurveTrials = 50_000

// BenchmarkInjectCurveK64 measures the bitsliced K=64 reliability
// campaign; the custom metric is sustained injections per second.
func BenchmarkInjectCurveK64(b *testing.B) {
	targets := curveK64Targets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, t := range targets {
			RandomErrors(t, benchCurveTrials, 1234+int64(100+j))
		}
	}
	b.StopTimer()
	inj := float64(b.N) * float64(len(targets)) * benchCurveTrials
	b.ReportMetric(inj/b.Elapsed().Seconds(), "inj/s")
}

// BenchmarkInjectCurveK64Scalar is the scalar baseline of the same
// campaign — the bench gate records the bitsliced/scalar inj/s ratio.
func BenchmarkInjectCurveK64Scalar(b *testing.B) {
	targets := curveK64Targets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, t := range targets {
			RandomErrorsScalar(t, benchCurveTrials, 1234+int64(100+j))
		}
	}
	b.StopTimer()
	inj := float64(b.N) * float64(len(targets)) * benchCurveTrials
	b.ReportMetric(inj/b.Elapsed().Seconds(), "inj/s")
}

func imt16Code(b *testing.B) *core.Code {
	b.Helper()
	code, err := core.NewCode(256, 16, 15, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return code
}

func imt16Target(b *testing.B) Target {
	b.Helper()
	return TargetAFT(imt16Code(b))
}

const benchIMT16Trials = 100_000

// BenchmarkInjectRandomIMT16 measures random corruption of the
// paper-scale IMT-16 code (272 physical bits, R=16) — the Table 2 /
// security-evaluation hot path.
func BenchmarkInjectRandomIMT16(b *testing.B) {
	target := imt16Target(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RandomErrors(target, benchIMT16Trials, 42)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*benchIMT16Trials/b.Elapsed().Seconds(), "inj/s")
}

// BenchmarkInjectRandomIMT16Scalar is the scalar baseline.
func BenchmarkInjectRandomIMT16Scalar(b *testing.B) {
	target := imt16Target(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RandomErrorsScalar(target, benchIMT16Trials, 42)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*benchIMT16Trials/b.Elapsed().Seconds(), "inj/s")
}

const benchTagTrials = 192_000

// Sinks keep the compiler from dropping the measured calls.
var (
	tallySink  Tally
	targetSink Target
	tableSink  bitslice.Table
	curveSink  []CurvePoint
)

// BenchmarkInjectTagIMT16 measures the sampled tag-corruption campaign
// on IMT-16 at the fault-campaign round's size. Tag engine construction
// is inside the loop because every TagCorruptions call pays for it.
func BenchmarkInjectTagIMT16(b *testing.B) {
	code := imt16Code(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tallySink = TagCorruptions(code, benchTagTrials, 42)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*benchTagTrials/b.Elapsed().Seconds(), "inj/s")
}

// BenchmarkTargetAFTIMT16 measures building the IMT-16 injection
// target: its class table (a 2^16-bit correctable-set bitmap and the
// tag span's checks) and bitsliced engine.
func BenchmarkTargetAFTIMT16(b *testing.B) {
	code := imt16Code(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		targetSink = TargetAFT(code)
	}
}

// BenchmarkExhaustiveKBitIMT16 measures ExhaustiveKBit alone on the
// IMT-16 target at k = 3: two Walsh–Hadamard transforms over 2^16
// entries and a tally by class, whatever k is.
func BenchmarkExhaustiveKBitIMT16(b *testing.B) {
	target := imt16Target(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := ExhaustiveKBit(target, 3)
		if err != nil {
			b.Fatal(err)
		}
		tallySink = t
	}
}

// BenchmarkClassTableIMT16 measures bitslice.NewTable alone on
// TargetAFT's spec for the R = 16, K = 256 codes at TS = 15, 10 and 7,
// whose tag spans leave 1, 6 and 9 checks.
func BenchmarkClassTableIMT16(b *testing.B) {
	for _, ts := range []int{15, 10, 7} {
		code, err := core.NewCode(256, 16, ts, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		phys := columnRange(code, ts, code.N())
		spec := bitslice.TableSpec{R: 16, Tag: columnRange(code, 0, ts), Corr: phys, CorrClass: bitslice.ClassCorrectable}
		b.Run(fmt.Sprintf("TS=%d", ts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tableSink, _ = bitslice.NewTable(spec)
			}
		})
	}
}

// Trial counts of one fault-campaign round, as perfbench's
// fault-campaign workload runs it.
const (
	roundCurveTrials  = 48_000
	roundRandomTrials = 384_000
	roundTagTrials    = 192_000
	roundWorkers      = 2
)

// BenchmarkInjectFaultRound runs one fault-campaign round: the K=64
// SDC curve (R = 1..12) and an IMT-16 random-corruption campaign on
// roundWorkers workers, then a sampled IMT-16 tag-corruption campaign
// (on GOMAXPROCS workers, as TagCorruptions always runs). The metric
// counts the sampled injections only (random and tag): the curve's
// 3-bit points are counted by transform, which classifies no pattern,
// though its time is in the round.
func BenchmarkInjectFaultRound(b *testing.B) {
	code := imt16Code(b)
	target := TargetAFT(code)
	var inj float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := SDCCurveWorkers(64, 12, roundCurveTrials, 1234, roundWorkers)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			inj += float64(p.RandomTrials)
		}
		tallySink = RandomErrorsParallel(target, roundRandomTrials, roundWorkers, 42)
		tallySink = TagCorruptions(code, roundTagTrials, 42)
		inj += roundRandomTrials + roundTagTrials
	}
	b.StopTimer()
	b.ReportMetric(inj/b.Elapsed().Seconds(), "inj/s")
}

// BenchmarkInjectCurveBuild times the set-up half of the fault-campaign
// round's curve alone: SDCCurveWorkers with no random trials builds the
// K=64 R = 1..12 codes and targets and counts the 3-bit errors of the
// correcting ones, on 1 and 2 workers.
func BenchmarkInjectCurveBuild(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := SDCCurveWorkers(64, 12, 0, 1234, workers)
				if err != nil {
					b.Fatal(err)
				}
				curveSink = pts
			}
		})
	}
}
