package bitslice_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ecc/bitslice"
	"repro/internal/reliability"
)

// Sinks keep the compiler from dropping the measured calls.
var (
	countsSink bitslice.Counts
	batchSink  *bitslice.Batch
)

// benchBatches is the number of batches one op fills or classifies, so
// that even a short fixed-count run (make bench-gate's -benchtime 5x)
// times hundreds of them.
const benchBatches = 64

// BenchmarkBatchRandom measures the plane fill of IMT-16 batches (272
// planes), the SplitMix64 stage of every random campaign.
func BenchmarkBatchRandom(b *testing.B) {
	batch := reliability.TargetAFT(benchIMT16Code(b)).Engine().NewBatch()
	rng := bitslice.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchBatches; j++ {
			batch.Random(rng)
		}
	}
	b.StopTimer()
	batchSink = batch
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatches), "ns/batch")
}

// BenchmarkClassify measures ClassifyMasks alone, benchBatches per op, on
// the engines the fault-campaign round runs: the IMT-16 injection
// target and tag engine, and the K=64 curve's R=12 Hsiao and R=8
// detect-only codes. The batches are filled as the campaigns fill
// them (Random, or RandomNonzero for the tag engine) before timing.
func BenchmarkClassify(b *testing.B) {
	code := benchIMT16Code(b)
	hsiao, err := ecc.NewHsiao(64, 12)
	if err != nil {
		b.Fatal(err)
	}
	detect, err := ecc.NewDetectOnly(64, 8, 1234+8)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name    string
		eng     *bitslice.Engine
		nonzero bool
	}{
		{"IMT16-target", reliability.TargetAFT(code).Engine(), false},
		{"IMT16-tag", benchTagEngine(b, code), true},
		{"K64-R12-hsiao", reliability.TargetECC(hsiao).Engine(), false},
		{"K64-R8-detect", reliability.TargetECC(detect).Engine(), false},
	}
	for _, c := range cases {
		batches := make([]*bitslice.Batch, benchBatches)
		for i := range batches {
			batches[i] = c.eng.NewBatch()
			rng := bitslice.NewRand(bitslice.SeedForBatch(42, uint64(i)))
			if c.nonzero {
				batches[i].RandomNonzero(rng)
			} else {
				batches[i].Random(rng)
			}
			batches[i].SetLaneRange(0, 64)
		}
		b.Run(c.name, func(b *testing.B) {
			var counts bitslice.Counts
			for i := 0; i < b.N; i++ {
				for _, batch := range batches {
					counts.Add(c.eng.Classify(batch))
				}
			}
			b.StopTimer()
			countsSink = counts
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatches), "ns/batch")
		})
	}
}

func benchIMT16Code(b *testing.B) *core.Code {
	b.Helper()
	code, err := core.NewCode(256, 16, 15, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return code
}

// benchTagEngine builds the tag-corruption engine TagCorruptions runs:
// the TS tag columns as physical bits, the tag span as ClassTag and the
// code's columns as ClassZero (a corrected mismatch is silent).
func benchTagEngine(b *testing.B, c *core.Code) *bitslice.Engine {
	b.Helper()
	var tag, corr []uint64
	for i := 0; i < c.N(); i++ {
		if i < c.TS() {
			tag = append(tag, c.Column(i))
		} else {
			corr = append(corr, c.Column(i))
		}
	}
	table, err := bitslice.NewTable(bitslice.TableSpec{R: c.R(), Tag: tag, Corr: corr, CorrClass: bitslice.ClassZero})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := bitslice.New(tag, table)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}
