package reliability

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ecc/bitslice"
	"repro/internal/gf2"
)

// aftVerdict is the class core's decoder gives syndrome s.
func aftVerdict(c *core.Code, s uint64) bitslice.Class {
	switch c.DecodeSyndrome(s, 0).Status {
	case core.StatusOK:
		return bitslice.ClassZero
	case core.StatusCorrected:
		return bitslice.ClassCorrectable
	case core.StatusTMM:
		return bitslice.ClassTag
	default:
		return bitslice.ClassOther
	}
}

// tagVerdict is the tag engine class classifyTagOnly implies for s:
// every silent outcome is the zero class.
func tagVerdict(c *core.Code, s uint64) bitslice.Class {
	switch classifyTagOnly(c, s) {
	case OutcomeTMM:
		return bitslice.ClassTag
	case OutcomeDUE:
		return bitslice.ClassOther
	default:
		return bitslice.ClassZero
	}
}

// eccVerdict is the class an untagged code's decoder gives s.
func eccVerdict(c *ecc.Code, s uint64) bitslice.Class {
	if s == 0 {
		return bitslice.ClassZero
	}
	if _, ok := c.CorrectableSyndrome(s); ok {
		return bitslice.ClassCorrectable
	}
	return bitslice.ClassOther
}

// checkAFTTables holds TargetAFT's table and the tag engine's table to
// the decoder on every one of the 2^R syndromes.
func checkAFTTables(t *testing.T, c *core.Code) {
	t.Helper()
	target := TargetAFT(c)
	tags, err := bitslice.NewTable(tagSpec(c))
	if err != nil {
		t.Fatal(err)
	}
	if target.table.R() != c.R() || tags.R() != c.R() {
		t.Fatalf("%s: table rows %d, %d; want %d", c, target.table.R(), tags.R(), c.R())
	}
	for s := uint64(0); s < 1<<uint(c.R()); s++ {
		if got, want := target.table.Class(s), aftVerdict(c, s); got != want {
			t.Fatalf("%s: TargetAFT class[%#x] = %d, decoder says %d", c, s, got, want)
		}
		if got, want := tags.Class(s), tagVerdict(c, s); got != want {
			t.Fatalf("%s: tag engine class[%#x] = %d, classifyTagOnly says %d", c, s, got, want)
		}
	}
}

// zeroSyndromeAFTCode builds an AllowAlias code whose tag columns 0 and
// 1 are equal, so tag pattern 0b11 has a zero syndrome and every tag
// syndrome comes from two patterns.
func zeroSyndromeAFTCode(t *testing.T, k, r, ts int) *core.Code {
	t.Helper()
	tag := aftCode(t, k, r, ts).TagMatrix()
	tag.SetCol(1, tag.Col(0))
	c, err := core.NewCode(k, r, ts, core.Options{TagMatrix: tag, AllowAlias: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.TagSyndrome(0b11) != 0 {
		t.Fatal("construction was supposed to have a zero-syndrome tag pattern")
	}
	return c
}

// TestClassTablesMatchDecoders: the column-space writer gives every
// syndrome the decoder's verdict. The scalar reference campaigns read
// the same tables as the engine, so this is the test that can catch a
// writer bug.
func TestClassTablesMatchDecoders(t *testing.T) {
	for _, c := range []*core.Code{
		aftCode(t, 256, 16, 15),
		// R = 16 at TS = 10 and 7 (extva57 builds the latter): 2^6 and
		// 2^9 cosets of the tag span, so 6 and 9 checks.
		aftCode(t, 256, 16, 10),
		aftCode(t, 256, 16, 7),
		aftCode(t, 64, 8, 7),
		aftCode(t, 16, 6, 5),
		aliasingAFTCode(t, 256, 10, 9),
		zeroSyndromeAFTCode(t, 16, 6, 5),
	} {
		checkAFTTables(t, c)
	}
	for _, c := range curveK64Codes(t) {
		target := TargetECC(c)
		for s := uint64(0); s < 1<<uint(c.R()); s++ {
			if got, want := target.table.Class(s), eccVerdict(c, s); got != want {
				t.Fatalf("%s: TargetECC class[%#x] = %d, decoder says %d", c.Name(), s, got, want)
			}
		}
	}
}

// FuzzClassTable: on a random small geometry with a random, possibly
// aliasing tag matrix, both tag-code tables equal the decoder's verdict
// on every syndrome. Tag columns are drawn uniformly, copied from a
// physical column (a collision with a correctable syndrome) or made the
// XOR of two earlier tag columns (a zero-syndrome tag pattern).
func FuzzClassTable(f *testing.F) {
	f.Add(uint8(2), uint8(15), uint8(4), int64(1))
	f.Add(uint8(6), uint8(200), uint8(8), int64(7))
	f.Add(uint8(0), uint8(3), uint8(2), int64(0))
	f.Fuzz(func(t *testing.T, r8, k8, ts8 uint8, seed int64) {
		r := 4 + int(r8)%9 // SEC-DED needs R ≥ 4; tables stay ≤ 2^12
		k := 1 + int(k8)%(1<<uint(r))
		maxTS, err := core.MaxTagSize(k, r)
		if err != nil || maxTS < 1 {
			t.Skip()
		}
		ts := 1 + int(ts8)%maxTS
		base, err := core.NewCode(k, r, ts, core.Options{})
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		cols := make([]uint64, ts)
		for i := range cols {
			switch n := rng.Intn(4); {
			case n == 0:
				cols[i] = base.Column(ts + rng.Intn(base.PhysicalBits()))
			case n == 1 && i >= 2:
				cols[i] = cols[rng.Intn(i)] ^ cols[rng.Intn(i)]
			default:
				cols[i] = rng.Uint64() & (1<<uint(r) - 1)
			}
		}
		c, err := core.NewCode(k, r, ts, core.Options{TagMatrix: gf2.FromColumns(r, cols), AllowAlias: true})
		if err != nil {
			t.Fatal(err)
		}
		checkAFTTables(t, c)
	})
}

// TestWideCodeTargets: a code wider than bitslice.MaxR gets no class
// table, so TargetAFT and TargetECC refuse it with a panic naming the
// bound, from R = MaxR + 1 up, while TagCorruptions still runs its
// table-free scalar path on it.
func TestWideCodeTargets(t *testing.T) {
	for _, r := range []int{bitslice.MaxR + 1, 32} {
		aft := aftCode(t, 256, r, r-1)
		hsiao, err := ecc.NewHsiao(256, r)
		if err != nil {
			t.Fatal(err)
		}
		for name, build := range map[string]func(){
			"TargetAFT": func() { TargetAFT(aft) },
			"TargetECC": func() { TargetECC(hsiao) },
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, fmt.Sprintf("MaxR = %d", bitslice.MaxR)) {
						t.Errorf("%s on R = %d: panic %q does not name the table bound", name, r, msg)
					}
				}()
				build()
			}()
		}
		if got := TagCorruptions(aft, 1000, 5); got.Total != 1000 || got.TMM != 1000 {
			t.Fatalf("TagCorruptions on R = %d: %+v, want 1000 TMM", r, got)
		}
	}
}
