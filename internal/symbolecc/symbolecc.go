package symbolecc

import (
	"fmt"
	"math"

	"repro/internal/gfp"
)

// Status mirrors core.Status for the symbol decoder.
type Status int

const (
	// StatusOK: zero syndrome, tags match.
	StatusOK Status = iota
	// StatusCorrected: one symbol repaired.
	StatusCorrected
	// StatusTMM: syndrome in the tag column space — a tag mismatch.
	StatusTMM
	// StatusDUE: detected uncorrectable error.
	StatusDUE
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusCorrected:
		return "corrected"
	case StatusTMM:
		return "TMM"
	case StatusDUE:
		return "DUE"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// MaxTagSize returns the alias-free tag limit for k data symbols over
// GF(2^m) with two check symbols. The limit is exactly m: the syndromes
// correctable at position j form the m-dimensional subspace
// L_j = {(e, α^j·e)}, so a tag column space of dimension m+1 or more
// must intersect some L_j nontrivially (dim(V∩L_j) ≥ dimV + m − 2m ≥ 1),
// while the m-dimensional space {(0, v)} avoids every L_j (its members
// have S0 = 0, correctable syndromes never do). Contrast the paper's
// binary Equation 5b, whose pure counting argument would allow 2m−1.
func MaxTagSize(f *gfp.Field, k int) (int, error) {
	n := k + 2
	if n > f.Size()-1 {
		return 0, fmt.Errorf("symbolecc: n=%d exceeds the %d positions GF(2^%d) supports", n, f.Size()-1, f.M())
	}
	if k < 1 {
		return 0, fmt.Errorf("symbolecc: need ≥ 1 data symbol")
	}
	return f.M(), nil
}

// CountingBound is the (unachievable) Equation 5b analogue for symbol
// codes, ⌊log₂(2^2m − n(2^m−1))⌋, exposed so tests and documentation can
// demonstrate that the binary bound does not transfer to symbol codes.
func CountingBound(f *gfp.Field, k int) int {
	n := k + 2
	total := int64(1) << uint(2*f.M())
	free := total - int64(n)*int64(f.Size()-1)
	if free < 2 {
		return 0
	}
	ts := int(math.Floor(math.Log2(float64(free))))
	for int64(1)<<uint(ts) > free {
		ts--
	}
	for int64(1)<<uint(ts+1) <= free {
		ts++
	}
	return ts
}

// Code is a tagged single-symbol-correcting code: k data symbols, two
// check symbols, and a ts-bit alias-free tag (ts may be 0 for untagged).
type Code struct {
	f  *gfp.Field
	k  int
	n  int
	ts int

	// Precomputed inverse of the check-symbol system
	// [1, 1; α^k, α^(k+1)].
	inv [2][2]uint16
}

// New constructs an untagged SSC code.
func New(f *gfp.Field, k int) (*Code, error) { return NewTagged(f, k, 0) }

// NewTagged constructs an SSC code with a ts-bit alias-free tag (ts ≤ m)
// using the S1-only tag columns (0, 2^b): tag bit b adds 2^b to S1 and
// nothing to S0, so T·pattern is (0, pattern) — an injective map, and a
// syndrome with S0 = 0 and S1 below 2^ts names its tag-error pattern
// directly. Construction verifies that no correctable syndrome falls in
// that tag range.
func NewTagged(f *gfp.Field, k, ts int) (*Code, error) {
	if k < 1 {
		return nil, fmt.Errorf("symbolecc: need ≥ 1 data symbol")
	}
	maxTS, err := MaxTagSize(f, k)
	if err != nil {
		return nil, err
	}
	if ts < 0 || ts > maxTS {
		return nil, fmt.Errorf("symbolecc: TS=%d outside [0,%d] for (m=%d, k=%d)", ts, maxTS, f.M(), k)
	}
	c := &Code{f: f, k: k, n: k + 2, ts: ts}

	// Invert [1 1; α^k α^(k+1)] for systematic encoding.
	a, b := uint16(1), uint16(1)
	cc, d := f.Pow(k), f.Pow(k+1)
	det := f.Add(f.Mul(a, d), f.Mul(b, cc))
	if det == 0 {
		return nil, fmt.Errorf("symbolecc: singular check system (unreachable for a primitive α)")
	}
	di := f.Inv(det)
	c.inv = [2][2]uint16{
		{f.Mul(d, di), f.Mul(b, di)},
		{f.Mul(cc, di), f.Mul(a, di)},
	}

	// A single-symbol error e at position j has syndrome e·(1, α^j): every
	// correctable syndrome is a nonzero multiple of its position's unit
	// syndrome, so one lands in the tag range {(0, v)} exactly when that
	// unit syndrome's S0 is 0. Checking the n positions covers all
	// n·(2^m−1) correctable syndromes.
	for j := 0; j < c.n; j++ {
		if s0, s1 := c.errorSyndrome(j, 1); s0 == 0 && ts > 0 {
			return nil, fmt.Errorf("symbolecc: correctable syndrome (%#x, %#x) of position %d falls in the tag range", s0, s1, j)
		}
	}
	return c, nil
}

// errorSyndrome is the (S0, S1) syndrome of error value e at symbol
// position j: S0 sums every symbol, S1 weighs position j by α^j.
func (c *Code) errorSyndrome(j int, e uint16) (s0, s1 uint16) {
	return e, c.f.Mul(c.f.Pow(j), e)
}

// K returns the data symbol count; N the codeword symbol count; TS the
// tag size in bits; M the symbol width in bits.
func (c *Code) K() int  { return c.k }
func (c *Code) N() int  { return c.n }
func (c *Code) TS() int { return c.ts }
func (c *Code) M() int  { return c.f.M() }

// TagMask returns the valid tag bits.
func (c *Code) TagMask() uint64 { return uint64(1)<<uint(c.ts) - 1 }

// tagContribution is T·tag: the S1-only tag columns add the tag to S1.
func (c *Code) tagContribution(tag uint64) (uint16, uint16) {
	return 0, uint16(tag)
}

// Encode computes the two check symbols for data under lockTag.
func (c *Code) Encode(data []uint16, lockTag uint64) (c0, c1 uint16, err error) {
	if len(data) != c.k {
		return 0, 0, fmt.Errorf("symbolecc: Encode expects %d symbols, got %d", c.k, len(data))
	}
	if lockTag&^c.TagMask() != 0 {
		return 0, 0, fmt.Errorf("symbolecc: tag %#x exceeds %d bits", lockTag, c.ts)
	}
	var p0, p1 uint16
	for j, d := range data {
		if int(d) >= c.f.Size() {
			return 0, 0, fmt.Errorf("symbolecc: symbol %d value %#x exceeds GF(2^%d)", j, d, c.f.M())
		}
		e0, e1 := c.errorSyndrome(j, d)
		p0, p1 = c.f.Add(p0, e0), c.f.Add(p1, e1)
	}
	t0, t1 := c.tagContribution(lockTag)
	r0, r1 := c.f.Add(p0, t0), c.f.Add(p1, t1)
	// Solve [1 1; α^k α^(k+1)]·[c0 c1]ᵀ = [r0 r1]ᵀ.
	c0 = c.f.Add(c.f.Mul(c.inv[0][0], r0), c.f.Mul(c.inv[0][1], r1))
	c1 = c.f.Add(c.f.Mul(c.inv[1][0], r0), c.f.Mul(c.inv[1][1], r1))
	return c0, c1, nil
}

// Result describes a symbol decode.
type Result struct {
	Status Status
	// Pos is the repaired symbol position (0..N-1) for StatusCorrected.
	Pos int
	// Value is the error value that was corrected.
	Value uint16
	// LockTagEstimate is the reconstructed lock tag for StatusTMM.
	LockTagEstimate uint64
	S0, S1          uint16
}

// Decode checks data and check symbols against keyTag, repairing a
// single corrupted symbol in place (including check symbols).
func (c *Code) Decode(data []uint16, c0, c1 uint16, keyTag uint64) (Result, error) {
	if len(data) != c.k {
		return Result{}, fmt.Errorf("symbolecc: Decode expects %d symbols, got %d", c.k, len(data))
	}
	var s0, s1 uint16
	for j, d := range data {
		e0, e1 := c.errorSyndrome(j, d)
		s0, s1 = c.f.Add(s0, e0), c.f.Add(s1, e1)
	}
	for j, d := range [2]uint16{c0, c1} {
		e0, e1 := c.errorSyndrome(c.k+j, d)
		s0, s1 = c.f.Add(s0, e0), c.f.Add(s1, e1)
	}
	t0, t1 := c.tagContribution(keyTag)
	s0, s1 = c.f.Add(s0, t0), c.f.Add(s1, t1)

	res := Result{S0: s0, S1: s1, Pos: -1}
	if s0 == 0 && s1 == 0 {
		res.Status = StatusOK
		return res, nil
	}
	if pattern := uint64(s1); s0 == 0 && pattern&^c.TagMask() == 0 {
		// (0, pattern) = T·pattern: a tag mismatch (pattern ≠ 0, as the
		// syndrome is not zero).
		res.Status = StatusTMM
		res.LockTagEstimate = (keyTag ^ pattern) & c.TagMask()
		return res, nil
	}
	if s0 != 0 && s1 != 0 {
		j := c.f.Log(c.f.Div(s1, s0))
		if j < c.n {
			res.Status = StatusCorrected
			res.Pos = j
			res.Value = s0
			if j < c.k {
				data[j] = c.f.Add(data[j], s0)
			}
			return res, nil
		}
	}
	res.Status = StatusDUE
	return res, nil
}
