package ecc

import (
	"math/bits"
	"math/rand"
	"testing"
)

// oddWeightColumnsRescan is the greedy that oddWeightColumns keeps
// incrementally, written the direct way: before every pick it rescores
// each remaining candidate's Σ rowWeight² from scratch and takes the
// first minimum.
func oddWeightColumnsRescan(k, r int, rng *rand.Rand) []uint64 {
	cols := make([]uint64, 0, k)
	rowWeight := make([]int, r)
	for w := 3; len(cols) < k; w += 2 {
		cands := combinations(r, w)
		if rng != nil {
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		}
		taken := make([]bool, len(cands))
		for remaining := len(cands); remaining > 0 && len(cols) < k; remaining-- {
			best, bestScore := -1, 0
			for i, c := range cands {
				if taken[i] {
					continue
				}
				score := 0
				for v := c; v != 0; v &= v - 1 {
					row := bits.TrailingZeros64(v)
					score += rowWeight[row] * rowWeight[row]
				}
				if best == -1 || score < bestScore {
					best, bestScore = i, score
				}
			}
			taken[best] = true
			cols = append(cols, cands[best])
			for v := cands[best]; v != 0; v &= v - 1 {
				rowWeight[bits.TrailingZeros64(v)]++
			}
		}
	}
	return cols
}

// TestOddWeightColumnsMatchesRescan pins the incremental greedy to the
// rescanning one, column for column, for every R from 4 to 16 at the
// data widths the repository builds (plus the full odd-weight set where
// it has at most 1024 columns), unshuffled and with the genetic search's
// seeded shuffles.
func TestOddWeightColumnsMatchesRescan(t *testing.T) {
	for r := 4; r <= 16; r++ {
		avail := 0
		for w := 3; w <= r; w += 2 {
			avail += binomial(r, w)
		}
		for _, k := range []int{8, 10, 16, 32, 64, 128, 256, 512, 1000, avail} {
			if k > avail || k == avail && avail > 1024 {
				continue
			}
			for _, seed := range []int64{-1, 1, 7} {
				var rngA, rngB *rand.Rand
				if seed >= 0 {
					rngA, rngB = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				}
				got, err := oddWeightColumns(k, r, rngA)
				if err != nil {
					t.Fatalf("R=%d K=%d: %v", r, k, err)
				}
				want := oddWeightColumnsRescan(k, r, rngB)
				if len(got) != len(want) {
					t.Fatalf("R=%d K=%d seed %d: %d columns, want %d", r, k, seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("R=%d K=%d seed %d: column %d = %#x, want %#x", r, k, seed, i, got[i], want[i])
					}
				}
				if seed >= 0 && rngA.Int63() != rngB.Int63() {
					t.Fatalf("R=%d K=%d seed %d: the two greedies drew different amounts from rng", r, k, seed)
				}
			}
		}
	}
}
