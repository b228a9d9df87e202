package bitslice

// Rand is a SplitMix64 generator: one add and three xor-shift-multiply
// finalizer steps per word, with a trivially seekable stream — the
// right shape for deterministic batched injection, where every 64-lane
// batch gets its own independent stream regardless of which worker runs
// it.
type Rand struct{ s uint64 }

// NewRand returns a generator seeded with the given state.
func NewRand(seed uint64) *Rand { return &Rand{s: seed} }

// Uint64 returns the next pseudo-random word.
func (r *Rand) Uint64() uint64 {
	r.s += splitMixGamma
	return mix64(r.s)
}

// splitMixGamma is SplitMix64's state increment, the odd integer
// nearest 2^64/φ.
const splitMixGamma = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 finalizer (Vigna), a strong 64-bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SeedForBatch derives the deterministic stream seed for batch `batch`
// of a campaign seeded `seed`: the finalized batch-th position of the
// SplitMix64 stream rooted at mix64(seed). Distinct (seed, batch) pairs
// get decorrelated streams, and the derivation depends only on the
// batch index — never on which worker processes the batch — which is
// what makes campaigns batch-splittable.
func SeedForBatch(seed int64, batch uint64) uint64 {
	return mix64(mix64(uint64(seed)) + splitMixGamma*(batch+1))
}
