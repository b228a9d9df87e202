package bitslice

import (
	"fmt"
	"math/bits"
)

// TableSpec names the column sets that fix every syndrome's class.
type TableSpec struct {
	// R is the number of syndrome rows, in [1, MaxR].
	R int
	// Tag holds the generators of the tag span: every nonzero syndrome in
	// their column space is ClassTag unless Corr claims it. Untagged codes
	// pass none.
	Tag []uint64
	// Corr holds the correctable syndromes (a code's physical columns);
	// detect-only codes pass none.
	Corr []uint64
	// CorrClass is the class of a Corr syndrome: ClassCorrectable for an
	// injection target, ClassZero for the tag engine, where a "corrected"
	// lock/key mismatch is silent corruption.
	CorrClass Class
}

// Table is an immutable syndrome class table. Only NewTable writes one,
// so an engine can share its bitmap without validating it.
//
// A syndrome's class is its structural class (zero → ClassZero, a
// nonzero span syndrome → ClassTag, else ClassOther) except at the
// nonzero Corr syndromes, which are corrClass. So a table stores just
// those syndromes, as a bitmap, and the tag span's checks; weights
// records the syndromes' popcounts, and an engine tests the bitmap
// only for lanes of those weights.
type Table struct {
	r int
	// corr has bit s set for each nonzero Corr syndrome s: 2^R bits.
	corr      []uint64
	corrClass Class
	// weights has bit w set when some syndrome of popcount w is in corr.
	weights uint32
	// checks annihilate the tag span: s is in the span exactly when
	// popcount(s & c) is even for every c. One mask per non-pivot row.
	checks []uint32
}

// R returns the number of syndrome rows (0 for the zero Table).
func (t *Table) R() int { return t.r }

// Class returns syndrome s's decode class; s must be below 2^R. The
// tests go in the order core.(*Code).resolve makes them: the zero
// syndrome, the correctable columns, then the tag span.
func (t *Table) Class(s uint64) Class {
	switch {
	case s == 0:
		return ClassZero
	case t.corr[s>>6]>>(s&63)&1 == 1:
		return t.corrClass
	}
	for _, c := range t.checks {
		if bits.OnesCount32(uint32(s)&c)&1 == 1 {
			return ClassOther
		}
	}
	return ClassTag
}

// NewTable writes the class table of spec, reproducing the verdict of
// core.(*Code).resolve on every syndrome without decoding any: the zero
// syndrome is ClassZero, a nonzero Corr syndrome is CorrClass, a
// nonzero syndrome in the tag span is ClassTag, and every other one is
// ClassOther. An aliasing tag matrix needs no special case: its
// zero-syndrome patterns reach only the zero syndrome.
//
// The tag test is linear. Reducing s by the tag span's pivots, kept in
// reduced echelon form keyed by their highest bit, leaves a residual
// that is the XOR of its bits' residuals, and s is in the span exactly
// when it is 0. The residual has bits only at the non-pivot rows, and
// its bit b is the parity of s over the rows k with unit[k] bit b set;
// those row sets are the table's checks.
func NewTable(spec TableSpec) (Table, error) {
	r := spec.R
	if r < 1 || r > MaxR {
		return Table{}, fmt.Errorf("bitslice: class tables need 1 ≤ r ≤ MaxR = %d, have r=%d", MaxR, r)
	}
	mask := uint64(1)<<uint(r) - 1
	for _, cols := range [][]uint64{spec.Tag, spec.Corr} {
		for i, c := range cols {
			if c&^mask != 0 {
				return Table{}, fmt.Errorf("bitslice: column %d = %#x exceeds %d syndrome bits", i, c, r)
			}
		}
	}
	if spec.CorrClass > ClassOther {
		return Table{}, fmt.Errorf("bitslice: invalid class value %d", spec.CorrClass)
	}

	// pivot[b] is the span vector with highest bit b, or 0; no pivot has
	// a bit at another pivot's lead (reduced echelon form).
	var pivot [MaxR]uint64
	for _, v := range spec.Tag {
		for b := r - 1; b >= 0; b-- {
			if v>>uint(b)&1 == 1 {
				v ^= pivot[b]
			}
		}
		if v == 0 {
			continue
		}
		lead := 63 - bits.LeadingZeros64(v)
		for b, p := range pivot {
			if p>>uint(lead)&1 == 1 {
				pivot[b] = p ^ v
			}
		}
		pivot[lead] = v
	}
	t := Table{r: r, corr: make([]uint64, (mask>>6)+1), corrClass: spec.CorrClass}
	for b := 0; b < r; b++ {
		if pivot[b] != 0 {
			continue
		}
		// unit[k] = residual(1<<k) is the bit itself, or the pivot with
		// lead k less that lead; the check collects bit b of each.
		var check uint32
		for k := 0; k < r; k++ {
			check |= uint32((uint64(1)<<uint(k)^pivot[k])>>uint(b)&1) << uint(k)
		}
		t.checks = append(t.checks, check)
	}
	for _, c := range spec.Corr {
		if c != 0 { // resolve tests for the zero syndrome first
			t.corr[c>>6] |= 1 << (c & 63)
			t.weights |= 1 << uint(bits.OnesCount64(c))
		}
	}
	return t, nil
}
