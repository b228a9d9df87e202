package bitslice

import (
	"fmt"
	"math/bits"

	"repro/internal/gf2"
)

// Class is the decode class of one syndrome value, mirroring the scalar
// classifier in internal/reliability: the zero/aliasing class, the
// single-bit-correctable columns, the tag column space (AFT-ECC), and
// everything else (detected uncorrectable). The two low bits are the
// engine's classification planes, so the numeric values are load-bearing.
type Class uint8

const (
	// ClassZero: the zero syndrome — or, for derived tables, a nonzero
	// syndrome the decoder silently accepts or miscorrects (an aliasing
	// construction). ClassifyMasks derives the zero-class mask from the
	// table, so any nonempty pattern landing in this class counts as
	// silent corruption.
	ClassZero Class = iota
	// ClassCorrectable: the syndrome matches a physical column.
	ClassCorrectable
	// ClassTag: the syndrome lies in the AFT-ECC tag column space.
	ClassTag
	// ClassOther: detected uncorrectable.
	ClassOther
)

// Outcome is a per-lane injection outcome, ordered as in
// reliability.Outcome.
type Outcome uint8

const (
	OutcomeOK Outcome = iota
	OutcomeCE
	OutcomeDUE
	OutcomeTMM
	OutcomeSDC
)

// Counts tallies the outcomes of classified lanes.
type Counts struct {
	Total, OK, CE, DUE, TMM, SDC uint64
}

// Add accumulates another tally into c.
func (c *Counts) Add(o Counts) {
	c.Total += o.Total
	c.OK += o.OK
	c.CE += o.CE
	c.DUE += o.DUE
	c.TMM += o.TMM
	c.SDC += o.SDC
}

// Engine classifies batches of error patterns against one code: nphys
// physical bit positions with their H columns and a 2^r-entry syndrome
// class table.
type Engine struct {
	nphys int
	r     int
	// class is the Table's slice, shared: tables are immutable.
	class []Class
	// rowBits[rowOff[j]:rowOff[j+1]] lists the physical bits whose
	// column has row bit j set — the XOR-fold recipe for syndrome plane j.
	rowBits []int32
	rowOff  []int32
	// detectOnly: every nonzero syndrome maps to ClassOther, so
	// classification needs no transpose or lookup (the zero class is
	// exactly the zero-syndrome lanes).
	detectOnly bool
}

// MaxR bounds an engine at 16 syndrome rows, the height of the
// syndrome pivot (gf2.Transpose16). Every code the repo injects into
// fits: the Figure 9 curve runs R = 1..16, IMT-16 has R = 16. Wider
// codes have no engine, and callers fall back to their scalar paths.
const MaxR = 16

// New builds an engine from a code's physical H columns and its class
// table, whose row count it takes. The table is shared.
func New(cols []uint64, table Table) (*Engine, error) {
	r := table.r
	if r < 1 || r > MaxR {
		return nil, fmt.Errorf("bitslice: r=%d out of range [1,%d]", r, MaxR)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("bitslice: no columns")
	}
	mask := uint64(1)<<uint(r) - 1
	ones := 0
	for i, c := range cols {
		if c&^mask != 0 {
			return nil, fmt.Errorf("bitslice: column %d = %#x exceeds %d syndrome bits", i, c, r)
		}
		ones += bits.OnesCount64(c)
	}
	e := &Engine{
		nphys:      len(cols),
		r:          r,
		class:      table.class,
		rowBits:    make([]int32, 0, ones),
		rowOff:     make([]int32, r+1),
		detectOnly: table.detectOnly,
	}
	for j := 0; j < r; j++ {
		for i, c := range cols {
			if c>>uint(j)&1 == 1 {
				e.rowBits = append(e.rowBits, int32(i))
			}
		}
		e.rowOff[j+1] = int32(len(e.rowBits))
	}
	return e, nil
}

// NPhys returns the number of physical bit positions.
func (e *Engine) NPhys() int { return e.nphys }

// R returns the number of syndrome rows.
func (e *Engine) R() int { return e.r }

// Batch holds 64 error patterns in bit-plane form: bit L of plane i
// means lane L flips physical bit i. The lane mask selects which of the
// 64 lanes are live; dead lanes are ignored by classification.
type Batch struct {
	planes []uint64
	lanes  uint64
}

// NewBatch allocates a batch sized for the engine, with no live lanes.
func (e *Engine) NewBatch() *Batch {
	return &Batch{planes: make([]uint64, e.nphys)}
}

// SetLaneRange marks lanes [lo, hi) live (0 ≤ lo < hi ≤ 64).
func (b *Batch) SetLaneRange(lo, hi int) {
	b.lanes = (^uint64(0) << uint(lo)) & (^uint64(0) >> uint(64-hi))
}

// Lanes returns the live-lane mask.
func (b *Batch) Lanes() uint64 { return b.lanes }

// Random fills every plane with one word from rng — each of the 64
// lanes becomes an independent uniformly random error pattern (bit-flip
// probability ½). The lane mask is untouched.
func (b *Batch) Random(rng *Rand) {
	for i := range b.planes {
		b.planes[i] = rng.Uint64()
	}
}

// RandomNonzero is Random followed by rerolling any all-zero lane until
// all 64 lanes hold a nonzero pattern — a uniform draw from the nonzero
// patterns, lane by lane.
func (b *Batch) RandomNonzero(rng *Rand) {
	b.Random(rng)
	for {
		var nz uint64
		for _, p := range b.planes {
			nz |= p
		}
		zero := ^nz
		if zero == 0 {
			return
		}
		for i := range b.planes {
			b.planes[i] = b.planes[i]&nz | rng.Uint64()&zero
		}
	}
}

// LaneMasks is the per-lane classification of one batch: bit L of each
// mask reports lane L's outcome. The five outcome masks partition Live.
type LaneMasks struct {
	Live                  uint64
	OK, CE, DUE, TMM, SDC uint64
}

// Outcome returns lane L's outcome and whether the lane was live.
func (m LaneMasks) Outcome(lane int) (Outcome, bool) {
	bit := uint64(1) << uint(lane)
	switch {
	case m.Live&bit == 0:
		return OutcomeOK, false
	case m.CE&bit != 0:
		return OutcomeCE, true
	case m.DUE&bit != 0:
		return OutcomeDUE, true
	case m.TMM&bit != 0:
		return OutcomeTMM, true
	case m.SDC&bit != 0:
		return OutcomeSDC, true
	default:
		return OutcomeOK, true
	}
}

// ClassifyMasks classifies all live lanes of a batch.
//
// The mask algebra mirrors the scalar classifier exactly: with zero /
// corr / tag / other the per-lane class masks — derived from the class
// table, so a nonzero syndrome whose entry is ClassZero (an aliasing
// construction) lands in the zero class — and w1 / w2 the weight-≥1 /
// weight-≥2 planes,
//
//	OK  = zero ∧ ¬w1        (empty pattern)
//	SDC = (zero ∧ w1) ∨ (corr ∧ w2)   (alias or miscorrection)
//	CE  = corr ∧ ¬w2        (true single-bit correction)
//	TMM = tag, DUE = other
//
// The five outcome masks always partition Live.
func (e *Engine) ClassifyMasks(b *Batch) LaneMasks {
	live := b.lanes
	m := LaneMasks{Live: live}
	if live == 0 {
		return m
	}

	// Weight planes: w2 |= w1 & p before w1 |= p per plane leaves w1 =
	// "≥ 1 bit", w2 = "≥ 2 bits" — all the classifier needs. Two
	// accumulator pairs over alternate planes halve the dependency
	// chain; a lane has ≥ 2 bits if either half has, or both have one.
	planes := b.planes
	var w1, w2, v1, v2 uint64
	i := 0
	for ; i+1 < len(planes); i += 2 {
		p, q := planes[i], planes[i+1]
		w2 |= w1 & p
		w1 |= p
		v2 |= v1 & q
		v1 |= q
	}
	if i < len(planes) {
		w2 |= w1 & planes[i]
		w1 |= planes[i]
	}
	w2 |= v2 | w1&v1
	w1 |= v1

	// Syndrome planes: row j is the XOR-fold of the planes listed in
	// rowBits[rowOff[j]:rowOff[j+1]].
	var syn [16]uint64
	zero := live
	for j := 0; j < e.r; j++ {
		var acc uint64
		for _, i := range e.rowBits[e.rowOff[j]:e.rowOff[j+1]] {
			acc ^= planes[i]
		}
		syn[j] = acc
		zero &^= acc
	}

	if e.detectOnly {
		m.OK = zero &^ w1
		m.SDC = zero & w1
		m.DUE = live &^ zero
		return m
	}

	// Pivot the R ≤ 16 row words into per-lane syndromes — lane 16q+i
	// reads bits [16q, 16q+16) of syn[i] — look each up in the class
	// table, and re-slice the two class bits into planes.
	gf2.Transpose16(&syn)
	class := e.class
	var b0, b1 uint64
	for i, w := range syn {
		for q := uint(0); q < 64; q += 16 {
			c := uint64(class[uint16(w>>q)])
			b0 |= (c & 1) << (q + uint(i))
			b1 |= (c >> 1) << (q + uint(i))
		}
	}
	// The zero-class mask comes from the table bits, not the syndrome:
	// class[0] is always ClassZero, so it covers the zero-syndrome lanes,
	// plus any aliased nonzero syndromes the table assigns to ClassZero.
	zeroC := live &^ (b0 | b1)
	corr := b0 &^ b1 & live
	tag := b1 &^ b0 & live
	other := b0 & b1 & live

	m.OK = zeroC &^ w1
	m.SDC = (zeroC & w1) | (corr & w2)
	m.CE = corr &^ w2
	m.TMM = tag
	m.DUE = other
	return m
}

// Classify tallies the live lanes of a batch.
func (e *Engine) Classify(b *Batch) Counts {
	m := e.ClassifyMasks(b)
	return Counts{
		Total: uint64(bits.OnesCount64(m.Live)),
		OK:    uint64(bits.OnesCount64(m.OK)),
		CE:    uint64(bits.OnesCount64(m.CE)),
		DUE:   uint64(bits.OnesCount64(m.DUE)),
		TMM:   uint64(bits.OnesCount64(m.TMM)),
		SDC:   uint64(bits.OnesCount64(m.SDC)),
	}
}
