package core

import (
	"fmt"
	"testing"

	"repro/internal/ecc"
	"repro/internal/gf2"
)

// FuzzDecodeInvariants drives the IMT-16 decoder with arbitrary data,
// tags, and up-to-two-bit corruption, asserting the §3.6 behavioral
// contract on every input. Run with `go test -fuzz=FuzzDecodeInvariants`
// for continuous fuzzing; the seed corpus runs under plain `go test`.
func FuzzDecodeInvariants(f *testing.F) {
	code, err := NewCode(256, 16, 15, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("seed data"), uint16(0x1234), uint16(0x1234), uint16(0), uint16(0))
	f.Add([]byte{0xFF, 0x00, 0xAB}, uint16(0x7FFF), uint16(0x0001), uint16(3), uint16(3))
	f.Add([]byte{}, uint16(0), uint16(0x4000), uint16(100), uint16(271))

	f.Fuzz(func(t *testing.T, raw []byte, lock16, key16, flipA, flipB uint16) {
		lock := uint64(lock16) & code.TagMask()
		key := uint64(key16) & code.TagMask()
		data := gf2.BitVecFromBytes(256, raw)
		check := code.Encode(data, lock)

		// Corrupt zero, one or two distinct physical bits.
		a := int(flipA) % code.PhysicalBits()
		b := int(flipB) % code.PhysicalBits()
		flips := []int{}
		if flipA%3 != 0 {
			flips = append(flips, a)
		}
		if flipB%3 == 1 && b != a {
			flips = append(flips, b)
		}
		rx := data.Clone()
		rxCheck := check
		for _, bit := range flips {
			if bit < code.K() {
				rx.Flip(bit)
			} else {
				rxCheck ^= 1 << uint(bit-code.K())
			}
		}

		res := code.Decode(rx, rxCheck, key)
		switch {
		case len(flips) == 0 && lock == key:
			if res.Status != StatusOK {
				t.Fatalf("clean decode: %v", res.Status)
			}
		case len(flips) == 0 && lock != key:
			if res.Status != StatusTMM || res.LockTagEstimate != lock {
				t.Fatalf("pure mismatch: %+v (lock %#x key %#x)", res, lock, key)
			}
		case len(flips) == 1 && lock == key:
			if res.Status != StatusCorrected || res.FlippedBit != flips[0] {
				t.Fatalf("1-bit: %+v want corrected bit %d", res, flips[0])
			}
			if !rx.Equal(data) && flips[0] < code.K() {
				t.Fatal("1-bit correction failed to restore data")
			}
		case len(flips) == 2 && lock == key:
			// Table 2: 2-bit errors are always detected, never silent,
			// never "corrected".
			if res.Status == StatusOK || res.Status == StatusCorrected {
				t.Fatalf("2-bit error silent: %v (flips %v)", res.Status, flips)
			}
		default:
			// Mixed corruption + tag mismatch: §3.6 explicitly withdraws
			// the guarantee here — "it cannot guarantee detection of all
			// 1 or 2-bit data errors when combined with an arbitrary tag
			// mismatch", because an even-weight data error can cancel the
			// tag-difference syndrome exactly (the fuzzer found such a
			// pair: flips {92,53} with lock 0x23 vs key 0x3fa8, kept in
			// testdata as a regression seed). The only invariant is that
			// decode returns a well-formed result.
			if res.Status != StatusOK && res.Status != StatusCorrected &&
				res.Status != StatusTMM && res.Status != StatusDUE {
				t.Fatalf("invalid status %v", res.Status)
			}
		}
	})
}

// tableCode is the table-driven AFT-ECC decoder NewCode used to build:
// enumerate all 2^TS tag patterns in order, keep the first pattern per
// syndrome, and — unless aliasing is allowed — fail on the first pattern
// with a zero syndrome, a correctable syndrome or an already-seen one.
type tableCode struct {
	synToBit map[uint64]int
	tagSyn   map[uint64]uint64
	mask     uint64
}

func newTableCode(phys []uint64, tag *gf2.Matrix, allowAlias bool) (*tableCode, error) {
	tc := &tableCode{synToBit: map[uint64]int{}, tagSyn: map[uint64]uint64{}, mask: 1<<uint(tag.Cols()) - 1}
	for i, s := range phys {
		if _, dup := tc.synToBit[s]; dup {
			return nil, fmt.Errorf("data/check column %d collides", i)
		}
		tc.synToBit[s] = i
	}
	for pattern := uint64(1); pattern <= tc.mask; pattern++ {
		s := tag.MulBits(pattern)
		_, corr := tc.synToBit[s]
		_, dup := tc.tagSyn[s]
		switch {
		case s == 0 || corr || dup:
			if !allowAlias {
				return nil, fmt.Errorf("pattern %#x aliases (syndrome %#x)", pattern, s)
			}
		default:
			tc.tagSyn[s] = pattern
		}
	}
	return tc, nil
}

func (tc *tableCode) resolve(s, keyTag uint64) Result {
	if s == 0 {
		return Result{Status: StatusOK, FlippedBit: -1}
	}
	if bit, ok := tc.synToBit[s]; ok {
		return Result{Status: StatusCorrected, Syndrome: s, FlippedBit: bit}
	}
	if pattern, ok := tc.tagSyn[s]; ok {
		return Result{Status: StatusTMM, Syndrome: s, FlippedBit: -1, LockTagEstimate: (keyTag ^ pattern) & tc.mask}
	}
	return Result{Status: StatusDUE, Syndrome: s, FlippedBit: -1}
}

// FuzzTagSolve builds codes (R ≤ 10) from fuzzed tag matrices of any
// rank, with AllowAlias on and off, and requires NewCode's verdict and
// every one of the 2^R syndromes' DecodeSyndrome and IsTagSyndrome
// answers to match the table-driven decoder's, along with
// TagSyndromeTable.
func FuzzTagSolve(f *testing.F) {
	// r8 = 2, k8 = 15 give R = 6, K = 16, where MaxTagSize is 5.
	f.Add(uint8(2), uint8(15), uint8(4), false, uint16(0x1f), []byte{})                     // staircase: builds
	f.Add(uint8(2), uint8(15), uint8(2), false, uint16(0x5), []byte{3, 0, 6, 0, 5, 0})      // col 2 = col 0 ^ col 1: rejected
	f.Add(uint8(2), uint8(15), uint8(1), false, uint16(0x3), []byte{7, 0, 3, 0})            // col 0 is D's first column: rejected
	f.Add(uint8(2), uint8(15), uint8(3), true, uint16(0x9), []byte{3, 0, 6, 0, 5, 0, 7, 0}) // both, aliasing allowed
	f.Add(uint8(6), uint8(200), uint8(7), true, uint16(0x55), []byte{0, 0, 1, 2, 3, 0, 3, 0, 9})
	f.Fuzz(func(t *testing.T, r8, k8, ts8 uint8, allowAlias bool, key uint16, raw []byte) {
		r := 4 + int(r8)%7
		avail := 0
		for w := 3; w <= r; w += 2 {
			avail += binomialInt(r, w)
		}
		k := 1 + int(k8)%avail
		maxTS, err := MaxTagSize(k, r)
		if err != nil || maxTS == 0 {
			t.Skip()
		}
		ts := 1 + int(ts8)%maxTS
		mask := uint64(1)<<uint(r) - 1
		cols := make([]uint64, ts)
		for j := range cols {
			if 2*j+1 < len(raw) {
				cols[j] = (uint64(raw[2*j]) | uint64(raw[2*j+1])<<8) & mask
			} else {
				cols[j] = 3 << uint(j) & mask
			}
		}
		tag := gf2.FromColumns(r, cols)
		base, err := ecc.NewHsiao(k, r)
		if err != nil {
			t.Fatal(err)
		}
		phys := make([]uint64, k+r)
		for i := range phys {
			phys[i] = base.Column(i)
		}

		want, wantErr := newTableCode(phys, tag, allowAlias)
		c, err := NewCode(k, r, ts, Options{TagMatrix: tag, AllowAlias: allowAlias})
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("K=%d R=%d T=%v alias=%v: NewCode error %v, table construction error %v", k, r, cols, allowAlias, err, wantErr)
		}
		if err != nil {
			return
		}
		keyTag := uint64(key) & c.TagMask()
		for s := uint64(0); s <= mask; s++ {
			if got, w := c.DecodeSyndrome(s, keyTag), want.resolve(s, keyTag); got != w {
				t.Fatalf("T=%v alias=%v syndrome %#x: DecodeSyndrome %+v, table %+v", cols, allowAlias, s, got, w)
			}
			p, ok := c.IsTagSyndrome(s)
			wp, wok := want.tagSyn[s]
			if p != wp || ok != wok {
				t.Fatalf("T=%v alias=%v: IsTagSyndrome(%#x) = (%#x, %v), table (%#x, %v)", cols, allowAlias, s, p, ok, wp, wok)
			}
		}
		table := c.TagSyndromeTable()
		if len(table) != len(want.tagSyn) {
			t.Fatalf("T=%v: TagSyndromeTable has %d entries, table %d", cols, len(table), len(want.tagSyn))
		}
		for s, p := range want.tagSyn {
			if table[s] != p {
				t.Fatalf("T=%v: TagSyndromeTable[%#x] = %#x, table %#x", cols, s, table[s], p)
			}
		}
	})
}

func binomialInt(n, k int) int {
	res := 1
	for i := 0; i < k; i++ {
		res = res * (n - i) / (i + 1)
	}
	return res
}
