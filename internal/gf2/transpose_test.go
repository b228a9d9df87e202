package gf2

import (
	"math/rand"
	"testing"
)

// transposeNaive is the reference: bit j of out[i] = bit i of in[j].
func transposeNaive(a [64]uint64) [64]uint64 {
	var out [64]uint64
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if a[j]>>uint(i)&1 == 1 {
				out[i] |= 1 << uint(j)
			}
		}
	}
	return out
}

// lane16 reads lane l's 16-bit value out of Transpose16's output.
func lane16(a [16]uint64, l int) uint64 {
	return a[l%16] >> uint(16*(l/16)) & 0xFFFF
}

// TestTranspose16MatchesNaive: for 16 row words over 64 lanes, lane l's
// field after Transpose16 is row l of the naive 64×64 transpose of the
// zero-padded rows — the per-lane syndrome ClassifyMasks looks up.
func TestTranspose16MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var a [16]uint64
		var padded [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
			padded[i] = a[i]
		}
		want := transposeNaive(padded)
		got := a
		Transpose16(&got)
		for l := 0; l < 64; l++ {
			if lane16(got, l) != want[l] {
				t.Fatalf("trial %d lane %d: Transpose16 gives %#x, naive %#x", trial, l, lane16(got, l), want[l])
			}
		}
	}
}

func TestTranspose16Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var a [16]uint64
	for i := range a {
		a[i] = rng.Uint64()
	}
	b := a
	Transpose16(&b)
	Transpose16(&b)
	if a != b {
		t.Fatal("Transpose16 applied twice is not the identity")
	}
}

func TestTranspose16SingleBit(t *testing.T) {
	// {row, lane}: the bit for lane l of row j must land in word l%16
	// at bit 16·(l/16)+j and nowhere else.
	for _, pos := range [][2]int{{0, 0}, {0, 63}, {15, 0}, {15, 63}, {3, 42}, {12, 17}, {7, 31}, {8, 32}} {
		var a [16]uint64
		a[pos[0]] = 1 << uint(pos[1])
		Transpose16(&a)
		for i := 0; i < 16; i++ {
			want := uint64(0)
			if i == pos[1]%16 {
				want = 1 << uint(16*(pos[1]/16)+pos[0])
			}
			if a[i] != want {
				t.Fatalf("row %d lane %d: word %d = %#x, want %#x", pos[0], pos[1], i, a[i], want)
			}
		}
	}
}
