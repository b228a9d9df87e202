package bitslice_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ecc/bitslice"
	"repro/internal/gf2"
	"repro/internal/reliability"
)

// family binds a bitsliced engine to an independent scalar oracle: the
// production decoder run on a freshly encoded codeword with the lane's
// error pattern applied. The oracle never looks at the engine's class
// table, so agreement is evidence, not tautology.
type family struct {
	name   string
	nphys  int
	eng    *bitslice.Engine
	oracle func(rng *rand.Rand, pattern []int) bitslice.Outcome
}

func eccFamily(tb testing.TB, c *ecc.Code) family {
	tb.Helper()
	eng := reliability.TargetECC(c).Engine()
	if eng == nil {
		tb.Fatalf("%s: no engine", c.Name())
	}
	return family{
		name:  c.Name(),
		nphys: c.N(),
		eng:   eng,
		oracle: func(rng *rand.Rand, pattern []int) bitslice.Outcome {
			data := gf2.NewBitVec(c.K())
			for i := 0; i < c.K(); i++ {
				data.Set(i, rng.Intn(2))
			}
			check := c.Encode(data)
			for _, b := range pattern {
				if b < c.K() {
					data.Flip(b)
				} else {
					check ^= 1 << uint(b-c.K())
				}
			}
			res := c.Decode(data, check)
			return outcomeFromStatus(int(res.Status), len(pattern),
				res.Status == ecc.StatusCorrected, res.Status == ecc.StatusOK, false)
		},
	}
}

func aftFamily(tb testing.TB, c *core.Code) family {
	tb.Helper()
	eng := reliability.TargetAFT(c).Engine()
	if eng == nil {
		tb.Fatalf("%s: no engine", c.String())
	}
	return family{
		name:  c.String(),
		nphys: c.PhysicalBits(),
		eng:   eng,
		oracle: func(rng *rand.Rand, pattern []int) bitslice.Outcome {
			data := gf2.NewBitVec(c.K())
			for i := 0; i < c.K(); i++ {
				data.Set(i, rng.Intn(2))
			}
			lock := rng.Uint64() & c.TagMask()
			check := c.Encode(data, lock)
			for _, b := range pattern {
				if b < c.K() {
					data.Flip(b)
				} else {
					check ^= 1 << uint(b-c.K())
				}
			}
			// Matching key and lock tags: the tag contributions cancel,
			// which is exactly what TargetAFT's physical columns model.
			res := c.Decode(data, check, lock)
			return outcomeFromStatus(int(res.Status), len(pattern),
				res.Status == core.StatusCorrected, res.Status == core.StatusOK,
				res.Status == core.StatusTMM)
		},
	}
}

// outcomeFromStatus maps a decoder status plus the true error weight to
// the injection outcome, mirroring reliability's classify contract.
func outcomeFromStatus(status, weight int, corrected, ok, tmm bool) bitslice.Outcome {
	switch {
	case ok:
		if weight == 0 {
			return bitslice.OutcomeOK
		}
		return bitslice.OutcomeSDC
	case corrected:
		if weight == 1 {
			return bitslice.OutcomeCE
		}
		return bitslice.OutcomeSDC
	case tmm:
		return bitslice.OutcomeTMM
	default:
		return bitslice.OutcomeDUE
	}
}

// families builds one representative of every code family in ecc plus
// two AFT-ECC constructions (including paper-scale IMT-10 geometry).
func families(tb testing.TB) []family {
	tb.Helper()
	var out []family
	out = append(out, eccFamily(tb, ecc.NewParity(32)))
	det, err := ecc.NewDetectOnly(16, 5, 1)
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, eccFamily(tb, det))
	sec, err := ecc.NewSEC(32, 6, 2)
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, eccFamily(tb, sec))
	h16, err := ecc.NewHsiao(16, 6)
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, eccFamily(tb, h16))
	h64, err := ecc.NewHsiao(64, 8)
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, eccFamily(tb, h64))
	aftSmall, err := core.NewCode(64, 8, 5, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, aftFamily(tb, aftSmall))
	imt10, err := core.NewCode(256, 10, 9, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, aftFamily(tb, imt10))
	return out
}

// diffBatch classifies the batch bitsliced and checks every live lane
// against the scalar oracle on the lane's extracted pattern. Returns
// the number of mismatching lanes; reports them via tb unless silent.
func diffBatch(tb testing.TB, f family, eng *bitslice.Engine, batch *bitslice.Batch, lanes int, rng *rand.Rand, silent bool) int {
	m := eng.ClassifyMasks(batch)
	mismatches := 0
	for lane := 0; lane < lanes; lane++ {
		got, live := m.Outcome(lane)
		if !live {
			tb.Fatalf("%s: lane %d unexpectedly dead", f.name, lane)
		}
		want := f.oracle(rng, batch.LaneBits(lane))
		if got != want {
			mismatches++
			if !silent && mismatches <= 5 {
				tb.Errorf("%s: lane %d pattern %v: bitsliced %v, scalar decode %v",
					f.name, lane, batch.LaneBits(lane), got, want)
			}
		}
	}
	return mismatches
}

// TestDifferentialExhaustiveSmallWeights checks every 0-, 1- and 2-bit
// error pattern of every family, lane by lane, against the production
// decoders.
func TestDifferentialExhaustiveSmallWeights(t *testing.T) {
	for _, f := range families(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			batch := f.eng.NewBatch()

			// All patterns of weight ≤ 2, packed 64 per batch.
			type pat [2]int
			var pats []pat
			pats = append(pats, pat{-1, -1}) // empty pattern
			for i := 0; i < f.nphys; i++ {
				pats = append(pats, pat{i, -1})
			}
			for i := 0; i < f.nphys; i++ {
				for j := i + 1; j < f.nphys; j++ {
					pats = append(pats, pat{i, j})
				}
			}
			for base := 0; base < len(pats); base += 64 {
				n := len(pats) - base
				if n > 64 {
					n = 64
				}
				batch.Reset()
				for lane := 0; lane < n; lane++ {
					for _, b := range pats[base+lane] {
						if b >= 0 {
							batch.Flip(lane, b)
						}
					}
				}
				batch.SetLaneRange(0, n)
				if diffBatch(t, f, f.eng, batch, n, rng, false) > 0 {
					t.Fatalf("mismatch in batch at %d", base)
				}
			}
		})
	}
}

// TestDifferentialRandomWeightMix runs ≥10k randomized trials per
// family with mixed error weights 0..7 (duplicate flips allowed, so
// effective weights vary), each lane checked against the decoder.
func TestDifferentialRandomWeightMix(t *testing.T) {
	const trials = 10_240 // 160 full batches
	for _, f := range families(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(202))
			batch := f.eng.NewBatch()
			for done := 0; done < trials; done += 64 {
				batch.Reset()
				for lane := 0; lane < 64; lane++ {
					w := rng.Intn(8)
					for i := 0; i < w; i++ {
						batch.Flip(lane, rng.Intn(f.nphys))
					}
				}
				batch.SetLaneRange(0, 64)
				if diffBatch(t, f, f.eng, batch, 64, rng, false) > 0 {
					t.Fatalf("mismatch in batch at %d", done)
				}
			}
		})
	}
}

// TestDifferentialSabotage proves the suite has teeth: corrupting one
// column mask of an otherwise correct engine, or dropping one syndrome
// from its table's correctable set, must produce oracle mismatches.
func TestDifferentialSabotage(t *testing.T) {
	c, err := ecc.NewHsiao(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := eccFamily(t, c)
	target := reliability.TargetECC(c)

	table, err := bitslice.NewTable(bitslice.TableSpec{
		R: c.R(), Corr: target.Columns(), CorrClass: bitslice.ClassCorrectable,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(eng *bitslice.Engine) int {
		rng := rand.New(rand.NewSource(303))
		batch := eng.NewBatch()
		mismatches := 0
		for done := 0; done < 4096; done += 64 {
			batch.Reset()
			for lane := 0; lane < 64; lane++ {
				w := 1 + rng.Intn(3)
				for i := 0; i < w; i++ {
					batch.Flip(lane, rng.Intn(f.nphys))
				}
			}
			batch.SetLaneRange(0, 64)
			mismatches += diffBatch(t, f, eng, batch, 64, rng, true)
		}
		return mismatches
	}

	t.Run("corrupted column mask", func(t *testing.T) {
		cols := target.Columns()
		cols[5] ^= 0x04
		eng, err := bitslice.New(cols, table)
		if err != nil {
			t.Fatal(err)
		}
		if got := run(eng); got == 0 {
			t.Fatal("sabotaged column mask produced zero mismatches — the differential oracle has no teeth")
		}
	})
	t.Run("corrupted class table", func(t *testing.T) {
		// Drop the first correctable syndrome: untagged, it becomes
		// ClassOther.
		bad := table
		for s := uint64(0); s < 1<<uint(bad.R()); s++ {
			if bad.Class(s) == bitslice.ClassCorrectable {
				bad.Drop(s)
				break
			}
		}
		eng, err := bitslice.New(target.Columns(), bad)
		if err != nil {
			t.Fatal(err)
		}
		if got := run(eng); got == 0 {
			t.Fatal("sabotaged class table produced zero mismatches — the differential oracle has no teeth")
		}
	})
	t.Run("intact engine", func(t *testing.T) {
		eng, err := bitslice.New(target.Columns(), table)
		if err != nil {
			t.Fatal(err)
		}
		if got := run(eng); got != 0 {
			t.Fatalf("control: intact engine produced %d mismatches", got)
		}
	})
}
