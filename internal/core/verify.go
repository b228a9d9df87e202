package core

import (
	"fmt"

	"repro/internal/gf2"
)

// Properties reports the verified structural guarantees of an AFT-ECC
// code, established by direct matrix checks (the set-intersection
// constraints of Figure 4) rather than trusting the constructor.
type Properties struct {
	// AliasFree: the tag submatrix has full column rank, so no tag
	// mismatch maps to the zero syndrome (0 ∉ T).
	AliasFree bool
	// SECPreserved: no member of the tag column space collides with a
	// data or identity column, so single-bit correction is unambiguous.
	SECPreserved bool
	// DEDPreserved: the underlying data/identity columns all have odd
	// weight and are distinct (Hsiao SEC-DED), and the tag column space is
	// all-even, so double-bit data errors can never be miscorrected.
	DEDPreserved bool
	// TagAllEven / DataAllOdd record the §3.5 recommendation the
	// construction follows.
	TagAllEven bool
	DataAllOdd bool
	// MaxTagRowOnes is the largest number of ones any row of T carries;
	// the Equation 6 staircase guarantees ≤ 2, which is why AFT-ECC adds
	// no XOR-tree level (Table 3's "no added delay").
	MaxTagRowOnes int
}

// Verify checks the AFT-ECC invariants of c directly on its matrices.
func Verify(c *Code) Properties {
	var p Properties
	tag := c.TagMatrix()
	p.AliasFree = tag.HasFullColumnRank()
	p.TagAllEven = tag.AllColumnsEvenWeight()
	p.MaxTagRowOnes = tag.MaxRowWeight()

	data := c.DataMatrix()
	p.DataAllOdd = data.AllColumnsOddWeight()

	// SEC preservation: no data/identity column lies in colspace(T),
	// i.e. appending any one of them to T raises the rank. A rank test on
	// the matrices, not the constructor's elimination, and no enumeration
	// of the 2^TS-member column space.
	rank := tag.Rank()
	p.SECPreserved = true
	for i := 0; i < c.PhysicalBits(); i++ {
		col := gf2.FromColumns(c.R(), []uint64{c.physColumn(i)})
		if gf2.Concat(tag, col).Rank() == rank {
			p.SECPreserved = false
			break
		}
	}

	// DED: distinct odd data/identity columns give distance ≥ 4 among
	// data errors; an all-even tag space can never produce an odd
	// (column-like) syndrome, so 2-bit data errors stay detected.
	distinct := gf2.Concat(data, gf2.Identity(c.R())).ColumnsDistinct()
	p.DEDPreserved = p.DataAllOdd && p.TagAllEven && distinct && p.SECPreserved
	return p
}

// MustVerify panics unless every AFT-ECC invariant holds. Experiment
// drivers call this once per constructed code so that any regression in
// the construction is loud.
func MustVerify(c *Code) {
	p := Verify(c)
	if !p.AliasFree || !p.SECPreserved || !p.DEDPreserved {
		panic(fmt.Sprintf("core: %v failed verification: %+v", c, p))
	}
}
