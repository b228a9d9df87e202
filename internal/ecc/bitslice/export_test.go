package bitslice

// Test-only pattern editing: the campaigns fill batches in bulk
// (Random, RandomNonzero), while the tests build patterns bit by bit
// and read them back.

// Flip toggles physical bit `bit` in lane `lane`.
func (b *Batch) Flip(lane, bit int) { b.planes[bit] ^= 1 << uint(lane) }

// Get reports whether lane `lane` flips physical bit `bit`.
func (b *Batch) Get(lane, bit int) bool { return b.planes[bit]>>uint(lane)&1 == 1 }

// Reset clears every pattern and the lane mask.
func (b *Batch) Reset() {
	for i := range b.planes {
		b.planes[i] = 0
	}
	b.lanes = 0
}

// LaneBits returns the physical bit indices lane `lane` flips.
func (b *Batch) LaneBits(lane int) []int {
	var out []int
	for i := range b.planes {
		if b.Get(lane, i) {
			out = append(out, i)
		}
	}
	return out
}

// Test-only table editing: NewTable is the only writer of production
// tables, so a test that needs a wrong one edits a copy.

// Drop removes syndrome s from t's correctable set, which leaves s its
// structural class. The bitmap is copied first, so tables and engines
// that share t's are untouched.
func (t *Table) Drop(s uint64) {
	t.corr = append([]uint64(nil), t.corr...)
	t.corr[s>>6] &^= 1 << (s & 63)
}
