package symbolecc

import (
	"math/rand"
	"testing"

	"repro/internal/gfp"
)

func newCode(t *testing.T, m, k, ts int) *Code {
	t.Helper()
	f, err := gfp.New(m)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewTagged(f, k, ts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randSymbols(rng *rand.Rand, k, m int) []uint16 {
	out := make([]uint16, k)
	for i := range out {
		out[i] = uint16(rng.Intn(1 << uint(m)))
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	for _, cfg := range []struct{ m, k, ts int }{{4, 8, 4}, {8, 32, 8}, {8, 32, 0}} {
		c := newCode(t, cfg.m, cfg.k, cfg.ts)
		rng := rand.New(rand.NewSource(int64(cfg.m)))
		for trial := 0; trial < 100; trial++ {
			data := randSymbols(rng, cfg.k, cfg.m)
			tag := rng.Uint64() & c.TagMask()
			c0, c1, err := c.Encode(data, tag)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Decode(data, c0, c1, tag)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != StatusOK {
				t.Fatalf("(m=%d): clean decode %v", cfg.m, res.Status)
			}
		}
	}
}

func TestSingleSymbolCorrectionExhaustive(t *testing.T) {
	// Every position × every error value, GF(2^4), k=8, tagged.
	c := newCode(t, 4, 8, 4)
	rng := rand.New(rand.NewSource(1))
	data := randSymbols(rng, 8, 4)
	tag := uint64(0xA)
	c0, c1, err := c.Encode(data, tag)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < c.N(); pos++ {
		for e := uint16(1); e < 16; e++ {
			rx := append([]uint16(nil), data...)
			rc0, rc1 := c0, c1
			switch {
			case pos < c.K():
				rx[pos] ^= e
			case pos == c.K():
				rc0 ^= e
			default:
				rc1 ^= e
			}
			res, err := c.Decode(rx, rc0, rc1, tag)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != StatusCorrected || res.Pos != pos || res.Value != e {
				t.Fatalf("pos %d e=%#x: %+v", pos, e, res)
			}
			if pos < c.K() {
				for i := range data {
					if rx[i] != data[i] {
						t.Fatalf("pos %d: data not restored", pos)
					}
				}
			}
		}
	}
}

func TestByteErrorCorrectionGPUSector(t *testing.T) {
	// The §7.1 headline: a (m=8, K=32 symbols) code over a 32B sector with
	// the 2B DRAM redundancy corrects ARBITRARY corruption within any one
	// byte — which bit-oriented SEC-DED can only detect.
	c := newCode(t, 8, 32, 8)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		data := randSymbols(rng, 32, 8)
		tag := rng.Uint64() & c.TagMask()
		c0, c1, err := c.Encode(data, tag)
		if err != nil {
			t.Fatal(err)
		}
		rx := append([]uint16(nil), data...)
		pos := rng.Intn(32)
		e := uint16(1 + rng.Intn(255)) // any multi-bit pattern in the byte
		rx[pos] ^= e
		res, err := c.Decode(rx, c0, c1, tag)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusCorrected || res.Pos != pos {
			t.Fatalf("byte error at %d (%#x): %+v", pos, e, res)
		}
	}
}

func TestTagMismatchExhaustiveGF16(t *testing.T) {
	c := newCode(t, 4, 8, 4)
	data := randSymbols(rand.New(rand.NewSource(3)), 8, 4)
	for lock := uint64(0); lock < 16; lock++ {
		c0, c1, err := c.Encode(data, lock)
		if err != nil {
			t.Fatal(err)
		}
		for key := uint64(0); key < 16; key++ {
			res, err := c.Decode(append([]uint16(nil), data...), c0, c1, key)
			if err != nil {
				t.Fatal(err)
			}
			if lock == key {
				if res.Status != StatusOK {
					t.Fatalf("lock=key=%d: %v", lock, res.Status)
				}
				continue
			}
			if res.Status != StatusTMM || res.LockTagEstimate != lock {
				t.Fatalf("lock=%d key=%d: %+v", lock, key, res)
			}
		}
	}
}

func TestTagMismatchSampledGF256(t *testing.T) {
	c := newCode(t, 8, 32, 8)
	rng := rand.New(rand.NewSource(4))
	data := randSymbols(rng, 32, 8)
	for trial := 0; trial < 2000; trial++ {
		lock := rng.Uint64() & c.TagMask()
		key := rng.Uint64() & c.TagMask()
		for key == lock {
			key = rng.Uint64() & c.TagMask()
		}
		c0, c1, err := c.Encode(data, lock)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Decode(append([]uint16(nil), data...), c0, c1, key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusTMM || res.LockTagEstimate != lock {
			t.Fatalf("lock=%#x key=%#x: %+v", lock, key, res)
		}
	}
}

// TestDecodeMatchesTagTable plants every syndrome (S0, S1) on a zero
// codeword and checks Decode against a decoder that tabulates the tag
// column space the direct way: T·pattern for all 2^TS patterns of the
// S1-only tag columns, each checked against the correctable set.
func TestDecodeMatchesTagTable(t *testing.T) {
	for _, cfg := range []struct{ m, k int }{{2, 1}, {4, 8}, {8, 32}} {
		for ts := 0; ts <= cfg.m; ts++ {
			c := newCode(t, cfg.m, cfg.k, ts)
			bad := c.correctableSet()
			table := map[uint32]uint64{}
			for pattern := uint64(1); pattern < 1<<uint(ts); pattern++ {
				var syn uint32
				for b := 0; b < ts; b++ {
					if pattern>>uint(b)&1 == 1 {
						syn ^= 1 << uint(b) // tag bit b's column (0, 2^b)
					}
				}
				if bad[syn] {
					t.Fatalf("m=%d ts=%d: tag pattern %#x has correctable syndrome %#x", cfg.m, ts, pattern, syn)
				}
				table[syn] = pattern
			}
			data := make([]uint16, c.k)
			size := uint16(c.f.Size())
			for s0 := uint16(0); s0 < size; s0++ {
				for s1 := uint16(0); s1 < size; s1++ {
					// Check symbols whose syndrome is (s0, s1) on zero data.
					c0 := c.f.Add(c.f.Mul(c.inv[0][0], s0), c.f.Mul(c.inv[0][1], s1))
					c1 := c.f.Add(c.f.Mul(c.inv[1][0], s0), c.f.Mul(c.inv[1][1], s1))
					for i := range data {
						data[i] = 0
					}
					res, err := c.Decode(data, c0, c1, 0)
					if err != nil {
						t.Fatal(err)
					}
					if res.S0 != s0 || res.S1 != s1 {
						t.Fatalf("m=%d: planted (%#x, %#x), decoded syndrome (%#x, %#x)", cfg.m, s0, s1, res.S0, res.S1)
					}
					want := StatusDUE
					pattern, tagged := table[uint32(s0)<<16|uint32(s1)]
					switch {
					case s0 == 0 && s1 == 0:
						want = StatusOK
					case tagged:
						want = StatusTMM
					case s0 != 0 && s1 != 0 && c.f.Log(c.f.Div(s1, s0)) < c.n:
						want = StatusCorrected
					}
					if res.Status != want || want == StatusTMM && res.LockTagEstimate != pattern {
						t.Fatalf("m=%d ts=%d syndrome (%#x, %#x): got %v estimate %#x, want %v estimate %#x",
							cfg.m, ts, s0, s1, res.Status, res.LockTagEstimate, want, pattern)
					}
				}
			}
		}
	}
}

func TestDoubleSymbolNeverSilent(t *testing.T) {
	// Minimum distance 3: a double-symbol error can miscorrect (like
	// 3-bit errors under SEC-DED) but can never produce a zero syndrome.
	c := newCode(t, 4, 8, 4)
	rng := rand.New(rand.NewSource(5))
	data := randSymbols(rng, 8, 4)
	tag := uint64(0x5)
	c0, c1, err := c.Encode(data, tag)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.K(); i++ {
		for j := i + 1; j < c.K(); j++ {
			for e1 := uint16(1); e1 < 16; e1++ {
				for e2 := uint16(1); e2 < 16; e2++ {
					rx := append([]uint16(nil), data...)
					rx[i] ^= e1
					rx[j] ^= e2
					res, err := c.Decode(rx, c0, c1, tag)
					if err != nil {
						t.Fatal(err)
					}
					if res.Status == StatusOK {
						t.Fatalf("double error (%d,%d,%#x,%#x) silent", i, j, e1, e2)
					}
				}
			}
		}
	}
}

func TestMaxTagSizeIsM(t *testing.T) {
	for _, m := range []int{4, 8} {
		f, err := gfp.New(m)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := MaxTagSize(f, 32%((1<<uint(m))-3)+1)
		if err != nil {
			t.Fatal(err)
		}
		if ts != m {
			t.Errorf("m=%d: MaxTagSize = %d, want m", m, ts)
		}
	}
	// The naive counting bound would promise far more than m for the GPU
	// configuration — it does not transfer to symbol codes.
	f, err := gfp.New(8)
	if err != nil {
		t.Fatal(err)
	}
	if cb := CountingBound(f, 32); cb != 15 {
		t.Errorf("counting bound = %d, want 15", cb)
	}
	if _, err := NewTagged(f, 32, 9); err == nil {
		t.Error("TS > m must be rejected")
	}
}

func TestNoAliasFreeSubspaceAboveM(t *testing.T) {
	// Exhaustive impossibility proof for m=2 (k=1, n=3): every
	// (m+1)=3-dimensional subspace of the 4-bit syndrome space intersects
	// the correctable set. 3-dim subspaces of GF(2)^4 are exactly the
	// kernels of the 15 nonzero linear functionals.
	f, err := gfp.New(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := c.correctableSet()
	for phi := uint32(1); phi < 16; phi++ {
		found := false
		for s := range bad {
			// Pack (S0,S1) into 4 bits: S0 in bits 2..3, S1 in bits 0..1.
			v := (s>>16)<<2 | s&0x3
			if parity4(phi&v) == 0 { // v ∈ ker(phi)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("functional %#x has an alias-free 3-dim kernel — the TS=m limit proof is wrong", phi)
		}
	}
}

func parity4(x uint32) int {
	x ^= x >> 2
	x ^= x >> 1
	return int(x & 1)
}

func TestValidation(t *testing.T) {
	f, err := gfp.New(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTagged(f, 0, 1); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := NewTagged(f, 14, 1); err == nil {
		t.Error("n > 2^m−1 must fail")
	}
	c := newCode(t, 4, 8, 4)
	if _, _, err := c.Encode(make([]uint16, 7), 0); err == nil {
		t.Error("short data must fail")
	}
	if _, _, err := c.Encode(make([]uint16, 8), 0x10); err == nil {
		t.Error("oversized tag must fail")
	}
	if _, _, err := c.Encode([]uint16{16, 0, 0, 0, 0, 0, 0, 0}, 0); err == nil {
		t.Error("out-of-field symbol must fail")
	}
	if _, err := c.Decode(make([]uint16, 7), 0, 0, 0); err == nil {
		t.Error("short decode must fail")
	}
}

func TestStatusString(t *testing.T) {
	if StatusOK.String() != "OK" || StatusCorrected.String() != "corrected" ||
		StatusTMM.String() != "TMM" || StatusDUE.String() != "DUE" || Status(9).String() == "" {
		t.Error("status strings wrong")
	}
}

func TestAccessors(t *testing.T) {
	c := newCode(t, 8, 32, 8)
	if c.K() != 32 || c.N() != 34 || c.TS() != 8 || c.M() != 8 || c.TagMask() != 0xFF {
		t.Error("accessors wrong")
	}
}

// correctableSet enumerates every single-symbol-error syndrome, packed
// as S0<<16 | S1.
func (c *Code) correctableSet() map[uint32]bool {
	bad := make(map[uint32]bool, c.n*(c.f.Size()-1))
	for j := 0; j < c.n; j++ {
		for e := uint16(1); int(e) < c.f.Size(); e++ {
			s0, s1 := c.errorSyndrome(j, e)
			bad[uint32(s0)<<16|uint32(s1)] = true
		}
	}
	return bad
}
