package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gf2"
)

func mustCode(t *testing.T, k, r, ts int) *Code {
	t.Helper()
	c, err := NewCode(k, r, ts, Options{})
	if err != nil {
		t.Fatalf("NewCode(%d,%d,%d): %v", k, r, ts, err)
	}
	return c
}

func randData(rng *rand.Rand, k int) *gf2.BitVec {
	v := gf2.NewBitVec(k)
	for i := 0; i < k; i++ {
		v.Set(i, rng.Intn(2))
	}
	return v
}

func TestMaxTagSizePaperAnchors(t *testing.T) {
	// The two starred configurations of Figure 5: (K=256, R=10) → TS=9 and
	// (K=256, R=16) → TS=15 — "one fewer bit than the ECC redundancy".
	cases := []struct{ k, r, want int }{
		{256, 10, 9},
		{256, 16, 15},
		{32, 16, 15},
		{64, 16, 15},
		{128, 16, 15},
		{512, 16, 15},
		{32, 6, 4},
		{64, 7, 5},
		{128, 8, 6},
		{512, 11, 10},
	}
	for _, c := range cases {
		got, err := MaxTagSize(c.k, c.r)
		if err != nil {
			t.Errorf("MaxTagSize(%d,%d): %v", c.k, c.r, err)
			continue
		}
		if got != c.want {
			t.Errorf("MaxTagSize(%d,%d) = %d, want %d", c.k, c.r, got, c.want)
		}
	}
}

func TestMaxTagSizeEdges(t *testing.T) {
	// Unshortened Hamming code (K = 2^R − 1 − R): no tag fits.
	if ts, err := MaxTagSize(11, 4); err != nil || ts != 0 {
		t.Errorf("MaxTagSize(11,4) = %d,%v; want 0,nil (unshortened)", ts, err)
	}
	// One bit of shortening: at most a 1-bit tag (the paper's Figure 5).
	if ts, err := MaxTagSize(10, 4); err != nil || ts != 1 {
		t.Errorf("MaxTagSize(10,4) = %d,%v; want 1,nil", ts, err)
	}
	// Beyond SEC capacity: an error.
	if _, err := MaxTagSize(12, 4); err == nil {
		t.Error("MaxTagSize(12,4) should fail: not SEC-capable")
	}
	if _, err := MaxTagSize(0, 8); err == nil {
		t.Error("MaxTagSize(0,8) should reject K=0")
	}
	if _, err := MaxTagSize(8, 0); err == nil {
		t.Error("MaxTagSize(8,0) should reject R=0")
	}
}

func TestMaxTagSizeMatchesInequality(t *testing.T) {
	// Brute-force the defining inequality (Eq 5a) for a sweep of (K,R).
	for r := 4; r <= 16; r++ {
		for _, k := range []int{8, 16, 32, 64, 100, 256, 500} {
			syndromes := int64(1) << uint(r)
			if syndromes-1 < int64(k+r) {
				continue // not SEC-capable
			}
			want := 0
			for ts := 1; ts <= r; ts++ {
				if syndromes-1-(int64(1)<<uint(ts)-1) >= int64(k+r) {
					want = ts
				}
			}
			got, err := MaxTagSize(k, r)
			if err != nil {
				t.Fatalf("MaxTagSize(%d,%d): %v", k, r, err)
			}
			if got != want {
				t.Errorf("MaxTagSize(%d,%d) = %d, brute force = %d", k, r, got, want)
			}
		}
	}
}

func TestStaircaseMatchesEquation6(t *testing.T) {
	// The full (R=16, TS=15) matrix from Equation 6, rows top to bottom,
	// column 0 rightmost.
	m, err := StaircaseTagMatrix(16, 15)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"000000000000001",
		"000000000000011",
		"000000000000110",
		"000000000001100",
		"000000000011000",
		"000000000110000",
		"000000001100000",
		"000000011000000",
		"000000110000000",
		"000001100000000",
		"000011000000000",
		"000110000000000",
		"001100000000000",
		"011000000000000",
		"110000000000000",
		"100000000000000",
	}, "\n")
	if got := m.String(); got != want {
		t.Errorf("staircase (16,15) =\n%s\nwant\n%s", got, want)
	}
	// The shortened (R=10, TS=9) highlighted block is the top-left of the
	// full matrix.
	short, err := StaircaseTagMatrix(10, 9)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 9; j++ {
		for i := 0; i < 10; i++ {
			if short.Get(i, j) != m.Get(i, j) {
				t.Fatalf("shortened staircase disagrees with the full matrix at (%d,%d)", i, j)
			}
		}
	}
}

func TestStaircaseProperties(t *testing.T) {
	for r := 2; r <= 16; r++ {
		for ts := 1; ts < r; ts++ {
			m, err := StaircaseTagMatrix(r, ts)
			if err != nil {
				t.Fatalf("StaircaseTagMatrix(%d,%d): %v", r, ts, err)
			}
			if !m.HasFullColumnRank() {
				t.Errorf("(%d,%d): staircase not alias-free", r, ts)
			}
			if !m.AllColumnsEvenWeight() {
				t.Errorf("(%d,%d): staircase has odd columns", r, ts)
			}
			if m.MaxRowWeight() > 2 {
				t.Errorf("(%d,%d): staircase row weight %d > 2", r, ts, m.MaxRowWeight())
			}
		}
	}
	if _, err := StaircaseTagMatrix(10, 10); err == nil {
		t.Error("TS=R staircase should be rejected")
	}
}

func TestNewCodeValidation(t *testing.T) {
	if _, err := NewCode(256, 10, 10, Options{}); err == nil {
		t.Error("TS above the alias-free bound must be rejected")
	}
	if _, err := NewCode(256, 10, 0, Options{}); err == nil {
		t.Error("TS=0 must be rejected (use an untagged code)")
	}
	if _, err := NewCode(1000, 10, 1, Options{}); err == nil {
		t.Error("K beyond SEC capacity must be rejected")
	}
}

func TestIMTConfigsVerify(t *testing.T) {
	// IMT-10 (K=256, R=10, TS=9) and IMT-16 (K=256, R=16, TS=15), §4.4.
	for _, cfg := range []struct{ k, r, ts int }{{256, 10, 9}, {256, 16, 15}} {
		c := mustCode(t, cfg.k, cfg.r, cfg.ts)
		p := Verify(c)
		if !p.AliasFree {
			t.Errorf("%v: not alias-free", c)
		}
		if !p.SECPreserved {
			t.Errorf("%v: SEC not preserved", c)
		}
		if !p.DEDPreserved {
			t.Errorf("%v: DED not preserved", c)
		}
		if p.MaxTagRowOnes > 2 {
			t.Errorf("%v: tag submatrix row weight %d > 2", c, p.MaxTagRowOnes)
		}
		MustVerify(c) // must not panic
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := mustCode(t, 64, 8, 5)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		data := randData(rng, 64)
		tag := rng.Uint64() & c.TagMask()
		check := c.Encode(data, tag)
		res := c.Decode(data.Clone(), check, tag)
		if res.Status != StatusOK {
			t.Fatalf("clean decode: %v", res.Status)
		}
	}
}

func TestTagMismatchAlwaysTMMExhaustive(t *testing.T) {
	// The alias-free guarantee: with no data error, EVERY (lock, key) pair
	// with lock != key reports a TMM, and the lock-tag estimate is exact.
	c := mustCode(t, 32, 8, 6)
	data := randData(rand.New(rand.NewSource(2)), 32)
	for lock := uint64(0); lock < 64; lock++ {
		check := c.Encode(data, lock)
		for key := uint64(0); key < 64; key++ {
			res := c.Decode(data.Clone(), check, key)
			if lock == key {
				if res.Status != StatusOK {
					t.Fatalf("lock=key=%d: %v", lock, res.Status)
				}
				continue
			}
			if res.Status != StatusTMM {
				t.Fatalf("lock=%d key=%d: %v, want TMM", lock, key, res.Status)
			}
			if res.LockTagEstimate != lock {
				t.Fatalf("lock=%d key=%d: estimate %d", lock, key, res.LockTagEstimate)
			}
		}
	}
}

func TestTagMismatchIMT16Sampled(t *testing.T) {
	c := mustCode(t, 256, 16, 15)
	rng := rand.New(rand.NewSource(3))
	data := randData(rng, 256)
	for trial := 0; trial < 2000; trial++ {
		lock := rng.Uint64() & c.TagMask()
		key := rng.Uint64() & c.TagMask()
		for key == lock {
			key = rng.Uint64() & c.TagMask()
		}
		check := c.Encode(data, lock)
		res := c.Decode(data.Clone(), check, key)
		if res.Status != StatusTMM || res.LockTagEstimate != lock {
			t.Fatalf("trial %d: %+v (lock=%#x key=%#x)", trial, res, lock, key)
		}
	}
}

func TestSingleBitCorrectionUnderMatchingTag(t *testing.T) {
	c := mustCode(t, 64, 8, 5)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		data := randData(rng, 64)
		tag := rng.Uint64() & c.TagMask()
		check := c.Encode(data, tag)
		bit := rng.Intn(c.PhysicalBits())
		rx := data.Clone()
		rxCheck := check
		if bit < c.K() {
			rx.Flip(bit)
		} else {
			rxCheck ^= 1 << uint(bit-c.K())
		}
		res := c.Decode(rx, rxCheck, tag)
		if res.Status != StatusCorrected || res.FlippedBit != bit {
			t.Fatalf("bit %d: %+v", bit, res)
		}
		if bit < c.K() && !rx.Equal(data) {
			t.Fatalf("bit %d: data not restored", bit)
		}
	}
}

func TestDoubleBitNeverSilent(t *testing.T) {
	// 2-bit data errors must always be detected (as DUE, or misattributed
	// TMM — Table 2 shows 2b → 100% DE). They must never be OK or
	// miscorrected.
	c := mustCode(t, 32, 8, 6)
	data := gf2.NewBitVec(32)
	tag := uint64(0x2A)
	check := c.Encode(data, tag)
	for i := 0; i < c.PhysicalBits(); i++ {
		for j := i + 1; j < c.PhysicalBits(); j++ {
			rx := data.Clone()
			rxCheck := check
			for _, b := range []int{i, j} {
				if b < c.K() {
					rx.Flip(b)
				} else {
					rxCheck ^= 1 << uint(b-c.K())
				}
			}
			res := c.Decode(rx, rxCheck, tag)
			if res.Status == StatusOK || res.Status == StatusCorrected {
				t.Fatalf("2-bit error (%d,%d) was silent: %v", i, j, res.Status)
			}
		}
	}
}

func TestNoTMMReportedAsDUE(t *testing.T) {
	// §3.6: "with AFT-ECC there is no risk of reporting a TMM as a DUE".
	// Pure tag mismatches (no data error) must never surface as DUE.
	c := mustCode(t, 64, 10, 9)
	rng := rand.New(rand.NewSource(5))
	f := func(lockSeed, keySeed uint16) bool {
		lock := uint64(lockSeed) & c.TagMask()
		key := uint64(keySeed) & c.TagMask()
		data := randData(rng, 64)
		check := c.Encode(data, lock)
		res := c.Decode(data.Clone(), check, key)
		if lock == key {
			return res.Status == StatusOK
		}
		return res.Status == StatusTMM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeSyndromeMatchesDecode(t *testing.T) {
	c := mustCode(t, 64, 8, 5)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 500; trial++ {
		data := randData(rng, 64)
		lock := rng.Uint64() & c.TagMask()
		key := rng.Uint64() & c.TagMask()
		check := c.Encode(data, lock)
		// Corrupt up to 3 random physical bits.
		rx := data.Clone()
		rxCheck := check
		n := rng.Intn(4)
		for e := 0; e < n; e++ {
			b := rng.Intn(c.PhysicalBits())
			if b < c.K() {
				rx.Flip(b)
			} else {
				rxCheck ^= 1 << uint(b-c.K())
			}
		}
		s := c.dataSyndrome(rx) ^ rxCheck ^ c.TagSyndrome(key)
		want := c.Decode(rx.Clone(), rxCheck, key)
		got := c.DecodeSyndrome(s, key)
		if got.Status != want.Status || got.Syndrome != want.Syndrome ||
			got.FlippedBit != want.FlippedBit || got.LockTagEstimate != want.LockTagEstimate {
			t.Fatalf("DecodeSyndrome mismatch: %+v vs %+v", got, want)
		}
	}
}

func TestErrorSyndromeLayout(t *testing.T) {
	c := mustCode(t, 32, 8, 6)
	// A virtual error in tag bit j must have the staircase column syndrome.
	for j := 0; j < c.TS(); j++ {
		e := gf2.NewBitVec(c.N())
		e.Set(j, 1)
		if got, want := c.ErrorSyndrome(e), c.TagMatrix().Col(j); got != want {
			t.Errorf("tag bit %d syndrome %#x, want %#x", j, got, want)
		}
	}
	// A data-bit error maps through the data columns.
	e := gf2.NewBitVec(c.N())
	e.Set(c.TS()+3, 1)
	if got, want := c.ErrorSyndrome(e), c.DataMatrix().Col(3); got != want {
		t.Errorf("data bit 3 syndrome %#x, want %#x", got, want)
	}
	// Physical layout skips the tag bits.
	pe := gf2.NewBitVec(c.PhysicalBits())
	pe.Set(3, 1)
	if c.PhysicalErrorSyndrome(pe) != c.DataMatrix().Col(3) {
		t.Error("physical error syndrome layout wrong")
	}
}

func TestTagSyndromeTableBijection(t *testing.T) {
	c := mustCode(t, 64, 10, 9)
	table := c.TagSyndromeTable()
	if len(table) != (1<<9)-1 {
		t.Fatalf("table size %d, want %d", len(table), (1<<9)-1)
	}
	seen := map[uint64]bool{}
	for syn, pat := range table {
		if pat == 0 || pat > c.TagMask() {
			t.Fatalf("invalid pattern %#x", pat)
		}
		if seen[pat] {
			t.Fatalf("pattern %#x appears twice", pat)
		}
		seen[pat] = true
		if c.TagSyndrome(pat) != syn {
			t.Fatalf("table inconsistent: T*%#x != %#x", pat, syn)
		}
		if got, ok := c.IsTagSyndrome(syn); !ok || got != pat {
			t.Fatalf("IsTagSyndrome(%#x) = %#x,%v", syn, got, ok)
		}
	}
}

// TestLargeRCodes builds codes whose tag column space no table could
// hold (2^31 and 2^39 members): each must verify and decode a planted
// lock/key mismatch as a TMM that recovers the lock tag.
func TestLargeRCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []struct{ k, r, ts int }{{256, 32, 31}, {64, 40, 39}} {
		c := mustCode(t, cfg.k, cfg.r, cfg.ts)
		MustVerify(c)
		for trial := 0; trial < 100; trial++ {
			data := randData(rng, cfg.k)
			lock := rng.Uint64() & c.TagMask()
			key := rng.Uint64() & c.TagMask()
			if key == lock {
				key ^= 1
			}
			check := c.Encode(data, lock)
			res := c.Decode(data, check, key)
			if res.Status != StatusTMM || res.LockTagEstimate != lock {
				t.Fatalf("%v: lock %#x key %#x decoded %+v, want TMM with the lock tag", c, lock, key, res)
			}
			if res := c.Decode(data, check, lock); res.Status != StatusOK {
				t.Fatalf("%v: matching tag decoded %v", c, res.Status)
			}
		}
	}
}

func TestRandomEvenTagMatrix(t *testing.T) {
	for _, cfg := range []struct{ r, ts int }{{10, 9}, {16, 15}, {8, 4}} {
		m, err := RandomEvenTagMatrix(cfg.r, cfg.ts, 7)
		if err != nil {
			t.Fatal(err)
		}
		if m.Cols() != cfg.ts || m.Rows() != cfg.r {
			t.Fatalf("(%d,%d): shape %dx%d", cfg.r, cfg.ts, m.Rows(), m.Cols())
		}
		if !m.HasFullColumnRank() {
			t.Errorf("(%d,%d): not alias-free", cfg.r, cfg.ts)
		}
		if !m.AllColumnsEvenWeight() {
			t.Errorf("(%d,%d): odd column present", cfg.r, cfg.ts)
		}
	}
	if _, err := RandomEvenTagMatrix(8, 8, 1); err == nil {
		t.Error("TS=R must be rejected")
	}
	if m, err := RandomEvenTagMatrix(8, 0, 1); err != nil || m.Cols() != 0 {
		t.Error("TS=0 should yield an empty matrix")
	}
	// The staircase is strictly lighter: that is its whole point.
	stair, err := StaircaseTagMatrix(16, 15)
	if err != nil {
		t.Fatal(err)
	}
	randT, err := RandomEvenTagMatrix(16, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	if randT.TotalOnes() <= stair.TotalOnes() {
		t.Errorf("random even matrix (%d ones) should be heavier than the staircase (%d)",
			randT.TotalOnes(), stair.TotalOnes())
	}
}

func TestGeneticStrategy(t *testing.T) {
	c, err := NewCode(32, 8, 6, Options{
		Strategy: DataGenetic,
		Genetic:  geneticTestOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	MustVerify(c)
}

func TestStatusString(t *testing.T) {
	if StatusOK.String() != "OK" || StatusCorrected.String() != "corrected" ||
		StatusTMM.String() != "TMM" || StatusDUE.String() != "DUE" {
		t.Error("status strings wrong")
	}
	if Status(99).String() == "" {
		t.Error("unknown status should still render")
	}
}

func TestCodeAccessors(t *testing.T) {
	c := mustCode(t, 256, 16, 15)
	if c.K() != 256 || c.R() != 16 || c.TS() != 15 {
		t.Error("accessor mismatch")
	}
	if c.N() != 287 || c.PhysicalBits() != 272 {
		t.Errorf("N=%d PhysicalBits=%d", c.N(), c.PhysicalBits())
	}
	if c.TagMask() != 0x7FFF {
		t.Errorf("TagMask = %#x", c.TagMask())
	}
	h := c.H()
	if h.Rows() != 16 || h.Cols() != 287 {
		t.Errorf("H shape %dx%d", h.Rows(), h.Cols())
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
}

func TestQuickRandomConfigurationsVerify(t *testing.T) {
	// Property: for any (K, R) that supports a tag, building the code at
	// any legal TS yields a verified alias-free SEC-DED AFT code.
	f := func(kSeed, rSeed, tsSeed uint8) bool {
		r := 6 + int(rSeed)%11  // 6..16
		k := 8 + int(kSeed)%120 // 8..127
		maxTS, err := MaxTagSize(k, r)
		if err != nil || maxTS < 1 {
			return true // not tag-capable: nothing to check
		}
		ts := 1 + int(tsSeed)%maxTS
		c, err := NewCode(k, r, ts, Options{})
		if err != nil {
			// Construction can only fail if the odd-column supply runs
			// out, which MaxTagSize does not gate; accept explicit errors.
			return true
		}
		p := Verify(c)
		return p.AliasFree && p.SECPreserved && p.DEDPreserved
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
