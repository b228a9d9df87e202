package bitslice

import (
	"fmt"
	"math/bits"
)

// MaxTableR bounds a class table at 2^24 entries (16 MiB), the bound
// core.(*Code).TagSyndromeTable uses for its own tag enumeration. Codes
// with 16 < R ≤ MaxTableR get a table but no engine (MaxR); wider codes
// get neither.
const MaxTableR = 24

// TableSpec names the column sets that fix every syndrome's class.
type TableSpec struct {
	// R is the number of syndrome rows, in [1, MaxTableR].
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

// Table is an immutable 2^R-entry syndrome class table. Only NewTable
// writes one, so an engine can share its slice without validating it.
//
// Every entry NewTable writes is the syndrome's structural class (zero
// → ClassZero, a nonzero span syndrome → ClassTag, else ClassOther)
// except at the nonzero Corr syndromes, whose popcounts weights
// records. An engine derives the structural class from the syndrome
// bits alone and reads the slice only for syndromes of those weights.
type Table struct {
	r     int
	class []Class
	// weights has bit w set when some syndrome of popcount w may hold a
	// class other than its structural one.
	weights uint32
	// checks annihilate the tag span: s is in the span exactly when
	// popcount(s & c) is even for every c. One mask per non-pivot row.
	checks []uint32
}

// R returns the number of syndrome rows (0 for the zero Table).
func (t Table) R() int { return t.r }

// Class returns syndrome s's decode class; s must be below 2^R.
func (t Table) Class(s uint64) Class { return t.class[s] }

// NewTable writes the class table of spec, reproducing the verdict of
// core.(*Code).resolve on every syndrome without decoding any: the zero
// syndrome is ClassZero, a nonzero Corr syndrome is CorrClass, a
// nonzero syndrome in the tag span is ClassTag, and every other one is
// ClassOther.
//
// The tag test is linear. Reducing s by the tag span's pivots, kept in
// reduced echelon form keyed by their highest bit, leaves a residual
// that is the XOR of its bits' residuals, and s is in the span exactly
// when it is 0. A bit below 8 has a residual below 2^8, so in the
// 256-entry block with high bits h, s = h<<8 | l is in the span exactly
// when residual(l) = residual(h<<8), and that value picks one of at
// most 257 block patterns: the 256 low residuals, or "none" when it has
// a bit above 8. Each block is then one copy of the first block that
// had its pattern. The zero and Corr entries go on last, in the order
// resolve tests them (zero, correctable columns, tag solve), which also
// covers aliasing tag matrices: their zero-syndrome patterns leave
// entry 0 alone.
//
// The residual of s has bits only at the non-pivot rows, and its bit b
// is the parity of s over the rows k with unit[k] bit b set; those
// row sets are the table's checks.
func NewTable(spec TableSpec) (Table, error) {
	r := spec.R
	if r < 1 || r > MaxTableR {
		return Table{}, fmt.Errorf("bitslice: class tables need 1 ≤ r ≤ MaxTableR = %d, have r=%d", MaxTableR, r)
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
	var pivot [MaxTableR]uint64
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
	// unit[b] is residual(1<<b): the bit itself, or the pivot with lead
	// b less that lead.
	var unit [MaxTableR]uint64
	for b := 0; b < r; b++ {
		unit[b] = uint64(1)<<uint(b) ^ pivot[b]
	}

	lowBits := min(r, 8)
	block := 1 << uint(lowBits)
	var low [256]uint64 // low[l] = residual(l)
	for l := 1; l < block; l++ {
		low[l] = low[l&(l-1)] ^ unit[bits.TrailingZeros(uint(l))]
	}
	// first[v] is the first block written with pattern v (v = 256 for
	// "none"), or -1. The blocks go in Gray-code order, so each one's
	// residual(g<<8) is one XOR from the last.
	var first [257]int32
	for v := range first {
		first[v] = -1
	}
	class := make([]Class, 1<<uint(r))
	var high uint64
	for h := 0; h < 1<<uint(r-lowBits); h++ {
		if h > 0 {
			high ^= unit[lowBits+bits.TrailingZeros(uint(h))]
		}
		g := h ^ h>>1
		dst := class[g*block : (g+1)*block]
		v := min(high, 256)
		if f := int(first[v]); f >= 0 {
			copy(dst, class[f*block:(f+1)*block])
			continue
		}
		first[v] = int32(g)
		for l := range dst {
			if low[l] == v {
				dst[l] = ClassTag
			} else {
				dst[l] = ClassOther
			}
		}
	}

	class[0] = ClassZero
	var weights uint32
	for _, c := range spec.Corr {
		if c != 0 { // resolve tests for the zero syndrome first
			class[c] = spec.CorrClass
			weights |= 1 << uint(bits.OnesCount64(c))
		}
	}
	var checks []uint32
	for b := 0; b < r; b++ {
		if pivot[b] != 0 {
			continue
		}
		var check uint32
		for k := 0; k < r; k++ {
			check |= uint32(unit[k]>>uint(b)&1) << uint(k)
		}
		checks = append(checks, check)
	}
	return Table{r: r, class: class, weights: weights, checks: checks}, nil
}
