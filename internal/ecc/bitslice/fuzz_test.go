package bitslice_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ecc/bitslice"
)

// fuzzZoo is built once: fuzz iterations are hot, code construction is
// not.
var (
	fuzzOnce sync.Once
	fuzzFams []family
)

func fuzzFamilies(tb testing.TB) []family {
	fuzzOnce.Do(func() { fuzzFams = families(tb) })
	return fuzzFams
}

// FuzzBitslicedDecode drives arbitrary batches through the bitsliced
// classifier: a fuzzer-chosen code, a pseudo-random base fill, and raw
// bytes decoded as (lane, bit) flip instructions. The properties: the
// engine never panics, and every live lane's outcome equals the
// production scalar decoder (ecc.Code.Decode / core.Code.Decode) run on
// the codeword extracted from that lane's bit-planes.
func FuzzBitslicedDecode(f *testing.F) {
	f.Add(uint8(0), uint64(0), []byte{})
	f.Add(uint8(4), uint64(1), []byte{0, 0, 1, 1, 63, 7})
	f.Add(uint8(6), uint64(0xDEADBEEF), []byte{17, 200, 17, 200, 42, 13})
	f.Add(uint8(3), uint64(12345), []byte{255, 255, 0, 128, 31, 64, 9, 3})

	f.Fuzz(func(t *testing.T, sel uint8, seed uint64, raw []byte) {
		fams := fuzzFamilies(t)
		fam := fams[int(sel)%len(fams)]
		batch := fam.eng.NewBatch()

		// Odd seeds start from a dense pseudo-random fill, even seeds
		// from empty planes — both regimes matter (the weight planes and
		// the zero/OK logic have different hot paths).
		if seed%2 == 1 {
			batch.Random(bitslice.NewRand(seed))
		}
		for i := 0; i+1 < len(raw); i += 2 {
			batch.Flip(int(raw[i])%64, int(raw[i+1])%fam.nphys)
		}
		lanes := 1 + int(seed%64)
		batch.SetLaneRange(0, lanes)

		m := fam.eng.ClassifyMasks(batch)
		if m.OK|m.CE|m.DUE|m.TMM|m.SDC != m.Live {
			t.Fatalf("%s: outcome masks do not partition live lanes", fam.name)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for lane := 0; lane < lanes; lane++ {
			got, live := m.Outcome(lane)
			if !live {
				t.Fatalf("%s: lane %d should be live", fam.name, lane)
			}
			want := fam.oracle(rng, batch.LaneBits(lane))
			if got != want {
				t.Fatalf("%s: lane %d pattern %v: bitsliced %v, scalar decode %v",
					fam.name, lane, batch.LaneBits(lane), got, want)
			}
		}
	})
}

// FuzzClassifyMasks holds ClassifyMasks to a per-lane oracle that
// shares nothing with the engine's table: each lane's syndrome and
// weight come from its extracted pattern, its class from the spec by
// enumeration (specClasses), and its outcome from the documented mask
// algebra. The spec is random: R in [1, 16],
// a tag span that is empty, drawn from random (zero, repeated or
// dependent) generators, drawn from the engine's own columns, or made
// of all of them as in the tag engine; Corr none, a subset or all of
// the columns, as ClassCorrectable or ClassZero. Each input classifies
// a dense, a sparse and a nonzero batch over the lanes [lo, hi].
func FuzzClassifyMasks(f *testing.F) {
	for _, s := range []struct {
		seed            uint64
		r, mode, lo, hi uint8
	}{
		{1, 4, 8, 0, 63},
		{2, 15, 1, 0, 63},
		{3, 7, 9, 5, 40},
		{4, 2, 20, 0, 63},
		{5, 11, 15, 63, 0},
		{6, 3, 11, 0, 63},
		{7, 0, 3, 17, 17},
		{8, 9, 22, 0, 63},
		{1, 7, 91, 7, 17},
	} {
		f.Add(s.seed, s.r, s.mode, s.lo, s.hi)
	}
	f.Fuzz(func(t *testing.T, seed uint64, r, mode, lo, hi uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		spec := bitslice.TableSpec{R: 1 + int(r%16)}
		mask := uint64(1)<<uint(spec.R) - 1
		cols := make([]uint64, 1+rng.Intn(48))
		for i := range cols {
			cols[i] = rng.Uint64() & mask
		}
		switch mode % 4 {
		case 1:
			for i := rng.Intn(spec.R + 2); i > 0; i-- {
				switch c := rng.Uint64() & mask; rng.Intn(4) {
				case 0:
					spec.Tag = append(spec.Tag, 0)
				case 1:
					if n := len(spec.Tag); n > 1 {
						c = spec.Tag[rng.Intn(n)] ^ spec.Tag[rng.Intn(n)]
					}
					spec.Tag = append(spec.Tag, c)
				default:
					spec.Tag = append(spec.Tag, c)
				}
			}
		case 2:
			for i := rng.Intn(spec.R + 1); i > 0; i-- {
				spec.Tag = append(spec.Tag, cols[rng.Intn(len(cols))])
			}
		case 3:
			spec.Tag = cols
		}
		switch mode / 4 % 3 {
		case 1:
			for _, c := range cols {
				if rng.Intn(2) == 0 {
					spec.Corr = append(spec.Corr, c)
				}
			}
		case 2:
			spec.Corr = cols
		}
		spec.CorrClass = []bitslice.Class{bitslice.ClassCorrectable, bitslice.ClassZero}[mode/12%2]
		table, err := bitslice.NewTable(spec)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := bitslice.New(cols, table)
		if err != nil {
			t.Fatal(err)
		}

		class := specClasses(spec)
		a, b := int(lo%64), int(hi%64)
		if a > b {
			a, b = b, a
		}
		batch := eng.NewBatch()
		for kind, name := range []string{"dense", "sparse", "nonzero"} {
			batch.Reset()
			switch kind {
			case 0:
				batch.Random(bitslice.NewRand(seed))
			case 1:
				for i := rng.Intn(192); i > 0; i-- {
					batch.Flip(rng.Intn(64), rng.Intn(len(cols)))
				}
			case 2:
				batch.RandomNonzero(bitslice.NewRand(^seed))
			}
			batch.SetLaneRange(a, b+1)
			m := eng.ClassifyMasks(batch)
			if m.OK|m.CE|m.DUE|m.TMM|m.SDC != m.Live {
				t.Fatalf("%s batch: outcome masks do not partition live lanes", name)
			}
			for lane := 0; lane < 64; lane++ {
				got, live := m.Outcome(lane)
				if live != (lane >= a && lane <= b) {
					t.Fatalf("%s batch: lane %d live = %v, range [%d, %d]", name, lane, live, a, b)
				}
				if !live {
					continue
				}
				var s uint64
				pattern := batch.LaneBits(lane)
				for _, i := range pattern {
					s ^= cols[i]
				}
				if want := maskAlgebra(class[s], len(pattern)); got != want {
					t.Fatalf("%s batch (R=%d tag=%#x corr=%#x class %d): lane %d pattern %v syndrome %#x: got %v, want %v",
						name, spec.R, spec.Tag, spec.Corr, spec.CorrClass, lane, pattern, s, got, want)
				}
			}
		}
	})
}

// specClasses classifies every syndrome below 2^R from the definition:
// the tag span by enumeration is ClassTag and the rest ClassOther, then
// the nonzero Corr syndromes take CorrClass and the zero syndrome
// ClassZero, as core.(*Code).resolve decides.
func specClasses(spec bitslice.TableSpec) []bitslice.Class {
	class := make([]bitslice.Class, 1<<uint(spec.R))
	for s := range class {
		class[s] = bitslice.ClassOther
	}
	class[0] = bitslice.ClassTag
	span := []uint64{0}
	for _, g := range spec.Tag {
		if class[g] == bitslice.ClassTag {
			continue
		}
		for _, v := range span {
			class[v^g] = bitslice.ClassTag
			span = append(span, v^g)
		}
	}
	for _, c := range spec.Corr {
		class[c] = spec.CorrClass
	}
	class[0] = bitslice.ClassZero
	return class
}

// maskAlgebra is ClassifyMasks's outcome for one lane of class c and
// error weight w.
func maskAlgebra(c bitslice.Class, w int) bitslice.Outcome {
	switch c {
	case bitslice.ClassZero:
		if w == 0 {
			return bitslice.OutcomeOK
		}
		return bitslice.OutcomeSDC
	case bitslice.ClassCorrectable:
		if w >= 2 {
			return bitslice.OutcomeSDC
		}
		return bitslice.OutcomeCE
	case bitslice.ClassTag:
		return bitslice.OutcomeTMM
	default:
		return bitslice.OutcomeDUE
	}
}
