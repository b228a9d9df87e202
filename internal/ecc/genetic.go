package ecc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
)

// GeneticOptions tunes the data-submatrix search. The paper (§3.5) selects
// its minimum odd-weight-column data submatrices "via a genetic algorithm
// to minimize the maximum number of 1s per row and to maximize 3-bit error
// detection"; this is that search.
type GeneticOptions struct {
	Population   int // genomes per generation (default 16)
	Generations  int // evolution steps (default 40)
	TripleTrials int // sampled 3-bit errors per fitness evaluation (default 20000)
	Seed         int64
}

// rowWeightPenalty scales how strongly an unbalanced row profile is
// penalized relative to one percentage point of 3-bit detection: 0.002
// per excess one in the heaviest row.
const rowWeightPenalty = 0.002

func (o *GeneticOptions) fill() {
	if o.Population == 0 {
		o.Population = 16
	}
	if o.Generations == 0 {
		o.Generations = 40
	}
	if o.TripleTrials == 0 {
		o.TripleTrials = 20000
	}
}

// NewGeneticSECDED runs a genetic search over odd-weight-column SEC-DED
// codes and returns the fittest one found. All genomes are valid SEC-DED
// codes throughout (odd distinct columns of weight ≥ 3), so the search only
// trades off 3-bit detection against row balance.
func NewGeneticSECDED(k, r int, opts GeneticOptions) (*Code, error) {
	opts.fill()
	if r < 4 {
		return nil, fmt.Errorf("ecc: SEC-DED needs R ≥ 4, got %d", r)
	}
	pool := oddPool(k, r)
	if len(pool) < k {
		return nil, fmt.Errorf("ecc: only %d odd-weight(≥3) columns exist for R=%d, need %d", len(pool), r, k)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	type genome struct {
		cols    []uint64
		fitness float64
	}
	evaluate := func(cols []uint64) float64 {
		det := sampledTripleDetection(cols, r, opts.TripleTrials, rand.New(rand.NewSource(opts.Seed+12345)))
		maxRow := rowProfileMax(cols, r)
		return det - rowWeightPenalty*float64(maxRow)
	}

	pop := make([]genome, opts.Population)
	for i := range pop {
		var cols []uint64
		if i == 0 {
			// Seed with the deterministic greedy-balanced construction.
			c, err := oddWeightColumns(k, r, nil)
			if err != nil {
				return nil, err
			}
			cols = c
		} else {
			c, err := oddWeightColumns(k, r, rng)
			if err != nil {
				return nil, err
			}
			cols = c
		}
		pop[i] = genome{cols: cols, fitness: evaluate(cols)}
	}

	mutate := func(cols []uint64) []uint64 {
		out := append([]uint64(nil), cols...)
		used := make(map[uint64]bool, len(out))
		for _, c := range out {
			used[c] = true
		}
		swaps := 1 + rng.Intn(3)
		for s := 0; s < swaps; s++ {
			for attempt := 0; attempt < 32; attempt++ {
				cand := pool[rng.Intn(len(pool))]
				if !used[cand] {
					victim := rng.Intn(len(out))
					used[out[victim]] = false
					out[victim] = cand
					used[cand] = true
					break
				}
			}
		}
		return out
	}
	crossover := func(a, b []uint64) []uint64 {
		set := make(map[uint64]bool, len(a)+len(b))
		union := make([]uint64, 0, len(a)+len(b))
		for _, c := range a {
			if !set[c] {
				set[c] = true
				union = append(union, c)
			}
		}
		for _, c := range b {
			if !set[c] {
				set[c] = true
				union = append(union, c)
			}
		}
		rng.Shuffle(len(union), func(i, j int) { union[i], union[j] = union[j], union[i] })
		// Keep the K lightest columns of the union (a's K distinct
		// columns are in it); the stable sort keeps the shuffled order
		// within a weight.
		sort.SliceStable(union, func(i, j int) bool {
			return bits.OnesCount64(union[i]) < bits.OnesCount64(union[j])
		})
		return union[:k]
	}

	for gen := 0; gen < opts.Generations; gen++ {
		sort.Slice(pop, func(i, j int) bool { return pop[i].fitness > pop[j].fitness })
		elite := len(pop) / 4
		if elite == 0 {
			elite = 1
		}
		next := append([]genome(nil), pop[:elite]...)
		for len(next) < len(pop) {
			a := pop[rng.Intn(elite+len(pop)/2)]
			b := pop[rng.Intn(elite+len(pop)/2)]
			child := mutate(crossover(a.cols, b.cols))
			next = append(next, genome{cols: child, fitness: evaluate(child)})
		}
		pop = next
	}
	sort.Slice(pop, func(i, j int) bool { return pop[i].fitness > pop[j].fitness })
	best := pop[0]
	return New(fmt.Sprintf("genetic(%d,%d)", k+r, k), SECDED, r, best.cols)
}

func oddPool(k, r int) []uint64 {
	var pool []uint64
	for w := 3; w <= r; w += 2 {
		pool = append(pool, combinations(r, w)...)
		// The pool only needs to comfortably exceed K; deep weights bloat
		// the search space and produce heavy encoders.
		if len(pool) >= 4*k {
			break
		}
	}
	return pool
}

func rowProfileMax(cols []uint64, r int) int {
	rowWeight := make([]int, r)
	for _, c := range cols {
		for v := c; v != 0; v &= v - 1 {
			rowWeight[bits.TrailingZeros64(v)]++
		}
	}
	max := 0
	for _, w := range rowWeight {
		if w > max {
			max = w
		}
	}
	return max
}

// sampledTripleDetection estimates the 3-bit-error detection rate on the
// full H matrix (data columns plus the identity) from random triples.
func sampledTripleDetection(dataCols []uint64, r, trials int, rng *rand.Rand) float64 {
	n := len(dataCols) + r
	col := func(i int) uint64 {
		if i < len(dataCols) {
			return dataCols[i]
		}
		return 1 << uint(i-len(dataCols))
	}
	colSet := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		colSet[col(i)] = true
	}
	detected := 0
	for t := 0; t < trials; t++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		for j == i {
			j = rng.Intn(n)
		}
		k := rng.Intn(n)
		for k == i || k == j {
			k = rng.Intn(n)
		}
		s := col(i) ^ col(j) ^ col(k)
		if s != 0 && !colSet[s] {
			detected++
		}
	}
	return float64(detected) / float64(trials)
}
