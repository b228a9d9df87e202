package ecc

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// NewHsiao constructs a SEC-DED code in the style of Hsiao's optimal
// minimum-odd-weight-column codes: the K data columns are distinct odd-weight
// vectors (weight ≥ 3, so they cannot collide with the identity check-bit
// columns), chosen smallest-weight-first with greedy row balancing to
// minimize the maximum row weight (which sets the encoder XOR-tree depth).
//
// Because every H column has odd weight, any double-bit error produces an
// even-weight (hence non-column) syndrome, guaranteeing double-bit
// detection.
func NewHsiao(k, r int) (*Code, error) {
	cols, err := oddWeightColumns(k, r, nil)
	if err != nil {
		return nil, err
	}
	return New(fmt.Sprintf("hsiao(%d,%d)", k+r, k), SECDED, r, cols)
}

// oddWeightColumns picks k distinct odd-weight (≥3) r-bit columns with
// greedy row balancing: within each weight class, lightest first, it
// repeatedly takes the first candidate with the smallest Σ rowWeight² over
// its rows. If rng is non-nil, candidate order within a weight class is
// shuffled before the greedy pass (used by the genetic search to
// diversify its initial population).
func oddWeightColumns(k, r int, rng *rand.Rand) ([]uint64, error) {
	if r < 4 {
		return nil, fmt.Errorf("ecc: SEC-DED needs R ≥ 4, got %d", r)
	}
	avail := 0
	for w := 3; w <= r; w += 2 {
		avail += binomial(r, w)
	}
	if k > avail {
		return nil, fmt.Errorf("ecc: only %d odd-weight(≥3) columns exist for R=%d, need %d", avail, r, k)
	}
	// A score is at most R·K² (no row holds more than K ones), and a
	// picked one grows by at most that much past taken.
	if int64(r)*int64(k)*int64(k) >= int64(taken) {
		return nil, fmt.Errorf("ecc: K=%d at R=%d is past the greedy's int32 scores (R·K² < 2^30)", k, r)
	}
	cols := make([]uint64, 0, k)
	rowWeight := make([]int32, r)
	for w := 3; len(cols) < k; w += 2 {
		cands := combinations(r, w)
		if rng != nil {
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		}
		// score[i] is candidate i's Σ rowWeight², kept current: a pick
		// raises each of its rows from x to x+1 ones, adding 2x+1 to the
		// score of every candidate on that row. onRow[row] lists those
		// candidates; every row is in C(r−1, w−1) of them.
		perRow := binomial(r-1, w-1)
		onRow := make([]int32, r*perRow)
		fill := make([]int, r)
		score := make([]int32, len(cands))
		for i, c := range cands {
			for v := c; v != 0; v &= v - 1 {
				row := bits.TrailingZeros64(v)
				score[i] += rowWeight[row] * rowWeight[row]
				onRow[row*perRow+fill[row]] = int32(i)
				fill[row]++
			}
		}
		// Scores only grow, so while the minimum stays at low every
		// candidate before the last pick scores above it: the next first
		// minimum is the first candidate after that pick still at low, and
		// only when none is left does the minimum need a full rescan.
		low, next := taken, len(cands)
		for left := len(cands); left > 0 && len(cols) < k; left-- {
			best := next
			for best < len(score) && score[best] != low {
				best++
			}
			if best == len(score) {
				best, low = 0, score[0]
				for i, sc := range score {
					if sc < low {
						best, low = i, sc
					}
				}
			}
			next = best + 1
			c := cands[best]
			score[best] = taken
			cols = append(cols, c)
			for v := c; v != 0; v &= v - 1 {
				row := bits.TrailingZeros64(v)
				d := 2*rowWeight[row] + 1
				for _, i := range onRow[row*perRow : (row+1)*perRow] {
					score[i] += d
				}
				rowWeight[row]++
			}
		}
	}
	return cols, nil
}

// taken is the score of a picked candidate: above any real score, with
// room for the increments later picks still add to it.
const taken int32 = math.MaxInt32 / 2

// NewSEC constructs a single-error-correcting code: the data columns are
// distinct nonzero vectors of weight ≥ 2 (weight-1 vectors are the check-bit
// columns). No double-bit detection is guaranteed. The seed controls the
// column choice among the eligible vectors.
func NewSEC(k, r int, seed int64) (*Code, error) {
	if r < 2 {
		return nil, fmt.Errorf("ecc: SEC needs R ≥ 2, got %d", r)
	}
	max := uint64(1)<<uint(r) - 1
	avail := int(max) - r // nonzero vectors minus the weight-1 ones
	if k > avail {
		return nil, fmt.Errorf("ecc: only %d usable columns for R=%d, need %d (code not SEC-capable)", avail, r, k)
	}
	cand := make([]uint64, 0, avail)
	for v := uint64(1); v <= max; v++ {
		if bits.OnesCount64(v) >= 2 {
			cand = append(cand, v)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	// Prefer light columns (sorted by weight) among the shuffled order for
	// cheaper encoders, mirroring practical SEC designs.
	sort.SliceStable(cand, func(i, j int) bool {
		return bits.OnesCount64(cand[i]) < bits.OnesCount64(cand[j])
	})
	return New(fmt.Sprintf("sec(%d,%d)", k+r, k), SEC, r, cand[:k])
}

// NewDetectOnly constructs an error-detecting-only code with R check bits:
// random nonzero data columns and no correction. With a uniformly random
// error pattern the undetected (SDC) probability is 2^-R, the behavior the
// paper's Figure 9 shows for its detect-only sweep.
func NewDetectOnly(k, r int, seed int64) (*Code, error) {
	if r < 1 {
		return nil, fmt.Errorf("ecc: detect-only needs R ≥ 1, got %d", r)
	}
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<uint(r) - 1
	cols := make([]uint64, k)
	for i := range cols {
		for cols[i] == 0 {
			cols[i] = rng.Uint64() & mask
		}
	}
	return New(fmt.Sprintf("detect(%d,%d)", k+r, k), DetectOnly, r, cols)
}

// NewParity constructs the R=1 even-parity code over k data bits: the
// degenerate end of the ECC-stealing spectrum (e.g. the paper's
// iso-security configurations that leave a single bit for parity).
func NewParity(k int) *Code {
	cols := make([]uint64, k)
	for i := range cols {
		cols[i] = 1
	}
	c, err := New(fmt.Sprintf("parity(%d,%d)", k+1, k), DetectOnly, 1, cols)
	if err != nil {
		panic("ecc: parity construction cannot fail: " + err.Error())
	}
	return c
}

// combinations returns all r-bit vectors of exactly weight w, in
// lexicographic order.
func combinations(r, w int) []uint64 {
	if w > r || w < 0 {
		return nil
	}
	out := make([]uint64, 0, binomial(r, w))
	// Gosper's hack over the w-weight vectors below 2^r.
	v := uint64(1)<<uint(w) - 1
	limit := uint64(1) << uint(r)
	for v < limit {
		out = append(out, v)
		if v == 0 {
			break
		}
		c := v & -v
		rp := v + c
		v = (((rp ^ v) >> 2) / c) | rp
	}
	return out
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 0; i < k; i++ {
		res = res * (n - i) / (i + 1)
	}
	return res
}
