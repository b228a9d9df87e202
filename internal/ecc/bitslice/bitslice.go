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
	// construction). ClassifyMasks honours the table's zero class, so
	// any nonempty pattern landing in this class counts as silent
	// corruption.
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
// physical bit positions with their H columns and a syndrome class
// table.
type Engine struct {
	nphys int
	// table is shared: tables are immutable.
	table Table
	// rowBits[rowOff[j]:rowOff[j+1]] lists the physical bits whose
	// column has row bit j set — the XOR-fold recipe for syndrome plane j.
	rowBits []int32
	rowOff  []int32
}

// MaxR bounds a class table, and so an engine, at 16 syndrome rows,
// the height of the syndrome pivot (gf2.Transpose16). Every code the
// repo injects into fits: the Figure 9 curve runs R = 1..16, IMT-16 has
// R = 16.
const MaxR = 16

// New builds an engine from a code's physical H columns and its class
// table, whose row count it takes. The table is shared.
func New(cols []uint64, table Table) (*Engine, error) {
	r := table.r
	if r == 0 {
		return nil, fmt.Errorf("bitslice: the zero Table has no rows")
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
		nphys:   len(cols),
		table:   table,
		rowBits: make([]int32, 0, ones),
		rowOff:  make([]int32, r+1),
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
func (e *Engine) R() int { return e.table.r }

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
// probability ½). Plane i gets the (i+1)-th word, as len(planes) calls
// of rng.Uint64 would give it. The lane mask is untouched.
func (b *Batch) Random(rng *Rand) {
	// Two words per step on a local state: their finalizers overlap.
	s, planes := rng.s, b.planes
	i := 0
	for ; i+1 < len(planes); i += 2 {
		s0 := s + splitMixGamma
		s = s0 + splitMixGamma
		planes[i], planes[i+1] = mix64(s0), mix64(s)
	}
	if i < len(planes) {
		s += splitMixGamma
		planes[i] = mix64(s)
	}
	rng.s = s
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
// corr / tag / other the per-lane class masks — the table's classes, so
// a correctable syndrome of class ClassZero (the tag engine's aliases)
// lands in the zero class — and w1 / w2 the weight-≥1 / weight-≥2
// planes,
//
//	OK  = zero ∧ ¬w1        (empty pattern)
//	SDC = (zero ∧ w1) ∨ (corr ∧ w2)   (alias or miscorrection)
//	CE  = corr ∧ ¬w2        (true single-bit correction)
//	TMM = tag, DUE = other
//
// The five outcome masks always partition Live.
//
// A lane's class is its syndrome's structural class — zero, tag (it
// passes the span's checks) or other — unless the syndrome is in the
// table's correctable set. Only lanes whose syndrome popcount is one of
// the table's weights can be, and only those candidate lanes test the
// set.
func (e *Engine) ClassifyMasks(b *Batch) LaneMasks {
	live := b.lanes
	m := LaneMasks{Live: live}
	if live == 0 {
		return m
	}
	w1, w2 := weightPlanes(b.planes)
	t := &e.table

	// Syndrome planes: row j is the XOR-fold of the planes listed in
	// rowBits[rowOff[j]:rowOff[j+1]]. Rows at and above r stay zero.
	var syn [16]uint64
	var nz uint64
	for j := 0; j < t.r; j++ {
		syn[j] = fold(b.planes, e.rowBits[e.rowOff[j]:e.rowOff[j+1]])
		nz |= syn[j]
	}
	span := ^uint64(0)
	for _, c := range t.checks {
		var parity uint64
		for ; c != 0; c &= c - 1 {
			parity ^= syn[bits.TrailingZeros32(c)]
		}
		span &^= parity
	}
	// Structural class bits (ClassZero 00, ClassTag 10, ClassOther 11):
	// b1 = nonzero syndrome, b0 = outside the span.
	b0, b1 := ^span, nz
	if t.weights != 0 {
		if cand := live & weightIn(&syn, t.weights); cand != 0 {
			// Pivot the R ≤ 16 row words into per-lane syndromes — lane
			// 16q+i reads bits [16q, 16q+16) of syn[i] — and give the
			// candidates in the correctable set its class bits.
			gf2.Transpose16(&syn)
			var in uint64
			for ; cand != 0; cand &= cand - 1 {
				l := uint(bits.TrailingZeros64(cand))
				s := uint16(syn[l&15] >> (l &^ 15))
				in |= (t.corr[s>>6] >> (s & 63) & 1) << l
			}
			c := uint64(t.corrClass)
			b0 = b0&^in | in&-(c&1)
			b1 = b1&^in | in&-(c>>1)
		}
	}
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

// weightPlanes returns w1 = "≥ 1 bit" and w2 = "≥ 2 bits" per lane. It
// stops once w2 is all ones: w2 ⊆ w1, so no later plane changes either.
func weightPlanes(planes []uint64) (w1, w2 uint64) {
	for _, p := range planes {
		w2 |= w1 & p
		w1 |= p
		if w2 == ^uint64(0) {
			break
		}
	}
	return w1, w2
}

// fold returns the XOR of the listed planes. It takes four gathers a
// step, XORs them in pairs and each pair into an accumulator of its
// own, so a step's loads and XORs do not wait on the step before it
// and one length test covers four indices; a tail of up to three goes
// to the first accumulator. (Four accumulators, one per gather, leave
// too few registers once fold is inlined into ClassifyMasks, and one
// of them goes to the stack.)
func fold(planes []uint64, idx []int32) uint64 {
	var a0, a1 uint64
	for ; len(idx) >= 4; idx = idx[4:] {
		a0 ^= planes[idx[0]] ^ planes[idx[1]]
		a1 ^= planes[idx[2]] ^ planes[idx[3]]
	}
	for _, i := range idx {
		a0 ^= planes[i]
	}
	return a0 ^ a1
}

// weightIn returns the lanes whose syndrome popcount w has bit w set in
// weights. A carry-save adder tree sums the 16 row planes into a 5-bit
// count per lane (c0 the ones bit … c4 the sixteens).
func weightIn(syn *[16]uint64, weights uint32) uint64 {
	// Ones: five full adders over rows 0–14, two over their sums and
	// row 15, and a half adder over the last two.
	s0, k0 := csa(syn[0], syn[1], syn[2])
	s1, k1 := csa(syn[3], syn[4], syn[5])
	s2, k2 := csa(syn[6], syn[7], syn[8])
	s3, k3 := csa(syn[9], syn[10], syn[11])
	s4, k4 := csa(syn[12], syn[13], syn[14])
	t0, k5 := csa(s0, s1, s2)
	t1, k6 := csa(s3, s4, syn[15])
	c0, k7 := t0^t1, t0&t1
	// Twos: eight carries.
	u0, f0 := csa(k0, k1, k2)
	u1, f1 := csa(k3, k4, k5)
	v0, f2 := csa(u0, u1, k6)
	c1, f3 := v0^k7, v0&k7
	// Fours, eights and sixteens.
	x0, e0 := csa(f0, f1, f2)
	c2, e1 := x0^f3, x0&f3
	c3, c4 := e0^e1, e0&e1

	count := [5]uint64{c0, c1, c2, c3, c4}
	var in uint64
	for ; weights != 0; weights &= weights - 1 {
		w := bits.TrailingZeros32(weights)
		eq := ^uint64(0)
		for j, c := range count {
			if w>>uint(j)&1 == 1 {
				eq &= c
			} else {
				eq &^= c
			}
		}
		in |= eq
	}
	return in
}

// csa is a bitsliced full adder: the sum and carry of a + b + c.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, a&b | u&c
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
