package bitslice

import "math/bits"

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
// tables, so a test that needs a wrong one edits a clone.

// Clone returns a copy of t that Set may edit without touching t.
func (t Table) Clone() Table {
	t.class = append([]Class(nil), t.class...)
	return t
}

// Set overwrites syndrome s's class, and adds s's popcount to the
// weights whose lanes an engine looks up, so engines built from t
// afterwards honour the edit.
func (t *Table) Set(s uint64, c Class) {
	t.class[s] = c
	t.weights |= 1 << uint(bits.OnesCount64(s))
}
