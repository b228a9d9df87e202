package core

import (
	"fmt"
	"math/bits"

	"repro/internal/ecc"
	"repro/internal/gf2"
)

// Status is the outcome of an AFT-ECC decode (Figure 3b / Figure 10).
type Status int

const (
	// StatusOK: zero syndrome — no error, and the key tag matched the
	// encoded lock tag.
	StatusOK Status = iota
	// StatusCorrected: a single-bit data or check-bit error was repaired.
	StatusCorrected
	// StatusTMM: the syndrome fell in the column space of the tag
	// submatrix — a tag mismatch (or, rarely, a misattributed even-weight
	// multi-bit data error; see Table 2 and §4.3's precise diagnosis).
	StatusTMM
	// StatusDUE: a detected-uncorrectable data error.
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

// DataStrategy selects how the data submatrix is chosen.
type DataStrategy int

const (
	// DataGreedy uses the deterministic greedy row-balanced
	// minimum-odd-weight construction (fast; always available).
	DataGreedy DataStrategy = iota
	// DataGenetic runs the §3.5 genetic search (slower; slightly better
	// 3-bit detection and row balance).
	DataGenetic
)

// Options configures NewCode.
type Options struct {
	Strategy DataStrategy
	Genetic  ecc.GeneticOptions
	// TagMatrix overrides the Equation 6 staircase with a custom R×TS tag
	// submatrix. The alias-free validation still runs unless AllowAlias is
	// set; Verify reports the structural properties of whatever matrix is
	// supplied.
	TagMatrix *gf2.Matrix
	// AllowAlias skips the alias-free validation of the tag column space
	// (zero-syndrome tag patterns, collisions with correctable columns).
	// The decoder then silently accepts or miscorrects aliased mismatches
	// — the failure mode the paper's construction rules out — and reports
	// each remaining tag syndrome with its smallest tag-error pattern.
	// Use it to build the deliberately aliasing baselines the negative
	// tests and the injection harness's differential suite exercise; such
	// codes fail MustVerify.
	AllowAlias bool
}

// Code is an Alias-Free Tagged ECC code with k data bits, r check bits and
// a ts-bit embedded tag. Its parity-check matrix is H = (T | D | I) with a
// weight-2 staircase T (Equation 6) and minimum-odd-weight-column D.
//
// Virtual codeword bit positions (used for error-pattern bookkeeping) are
// laid out tag-first, matching Equation 4: bits [0,TS) are tag positions
// (never physically stored), [TS, TS+K) data, [TS+K, TS+K+R) check bits.
type Code struct {
	k, r, ts int
	tag      *gf2.Matrix // R×TS staircase
	dataCols []uint64

	synToBit map[uint64]int   // data/check single-bit-error syndrome -> physical bit
	tagSolve *gf2.Elimination // T row-reduced: syndrome -> tag-error pattern in O(R)
}

// NewCode constructs an AFT-ECC code. It validates the paper's tag-size
// bound (Equation 5b) and the structural requirements, and fails rather
// than silently producing a code without the alias-free or SEC properties.
func NewCode(k, r, ts int, opts Options) (*Code, error) {
	maxTS, err := MaxTagSize(k, r)
	if err != nil {
		return nil, err
	}
	if ts < 1 {
		return nil, fmt.Errorf("core: tag size %d must be ≥ 1 (use package ecc for untagged codes)", ts)
	}
	if ts > maxTS {
		return nil, fmt.Errorf("core: TS=%d exceeds the alias-free bound %d for (K=%d, R=%d)", ts, maxTS, k, r)
	}
	tag := opts.TagMatrix
	if tag == nil {
		tag, err = StaircaseTagMatrix(r, ts)
		if err != nil {
			return nil, err
		}
	} else {
		if tag.Rows() != r || tag.Cols() != ts {
			return nil, fmt.Errorf("core: custom tag matrix is %d×%d, want %d×%d", tag.Rows(), tag.Cols(), r, ts)
		}
		tag = tag.Clone()
	}

	var base *ecc.Code
	switch opts.Strategy {
	case DataGenetic:
		base, err = ecc.NewGeneticSECDED(k, r, opts.Genetic)
	default:
		base, err = ecc.NewHsiao(k, r)
	}
	if err != nil {
		return nil, err
	}

	c := &Code{k: k, r: r, ts: ts, tag: tag}
	c.dataCols = make([]uint64, k)
	for i := 0; i < k; i++ {
		c.dataCols[i] = base.Column(i)
	}

	// Row-reduce T once. Alias-free (Equation 5b's premise) means T has
	// full column rank — an empty kernel, so no tag mismatch has the zero
	// syndrome and no two mismatches share one; SEC is preserved when no
	// data/check column lies in colspace(T).
	c.tagSolve = tag.Eliminate()
	if kernel := c.tagSolve.Kernel(); len(kernel) > 0 && !opts.AllowAlias {
		return nil, fmt.Errorf("core: tag submatrix is not alias-free: pattern %#x has zero syndrome", kernel[0])
	}
	c.synToBit = make(map[uint64]int, k+r)
	for i := 0; i < k+r; i++ {
		s := c.physColumn(i)
		if prev, dup := c.synToBit[s]; dup {
			return nil, fmt.Errorf("core: data/check columns %d and %d collide", prev, i)
		}
		c.synToBit[s] = i
		if pattern, clash := c.tagSolve.Solve(s); clash && !opts.AllowAlias {
			return nil, fmt.Errorf("core: tag syndrome %#x (pattern %#x) collides with a correctable column; SEC would be lost", s, pattern)
		}
	}
	return c, nil
}

// K returns the number of data bits per codeword.
func (c *Code) K() int { return c.k }

// R returns the number of check bits.
func (c *Code) R() int { return c.r }

// TS returns the embedded tag size in bits.
func (c *Code) TS() int { return c.ts }

// N returns the virtual codeword length TS+K+R (Equation 4).
func (c *Code) N() int { return c.ts + c.k + c.r }

// PhysicalBits returns the number of physically stored bits, K+R: the tag
// positions are virtual and never written to memory.
func (c *Code) PhysicalBits() int { return c.k + c.r }

// TagMask returns a mask of the valid tag bits.
func (c *Code) TagMask() uint64 { return uint64(1)<<uint(c.ts) - 1 }

// TagMatrix returns a copy of the R×TS tag submatrix.
func (c *Code) TagMatrix() *gf2.Matrix { return c.tag.Clone() }

// DataMatrix returns a copy of the R×K data submatrix.
func (c *Code) DataMatrix() *gf2.Matrix { return gf2.FromColumns(c.r, c.dataCols) }

// H returns the full parity-check matrix (T | D | I).
func (c *Code) H() *gf2.Matrix {
	return gf2.Concat(c.tag, c.DataMatrix(), gf2.Identity(c.r))
}

// physColumn returns the H column of physical bit i (0..K-1 data,
// K..K+R-1 check).
func (c *Code) physColumn(i int) uint64 {
	if i < c.k {
		return c.dataCols[i]
	}
	return 1 << uint(i-c.k)
}

// Column returns the H column of virtual codeword bit i in the Equation 4
// layout: tag bits first, then data, then check bits.
func (c *Code) Column(i int) uint64 {
	if i < c.ts {
		return c.tag.Col(i)
	}
	return c.physColumn(i - c.ts)
}

// TagSyndrome computes T*tag, the tag's contribution to the check bits.
func (c *Code) TagSyndrome(tag uint64) uint64 {
	if tag&^c.TagMask() != 0 {
		panic(fmt.Sprintf("core: tag %#x exceeds %d bits", tag, c.ts))
	}
	return c.tag.MulBits(tag)
}

// Encode computes the check bits for a data vector under lockTag:
// check = D*data ⊕ T*lockTag. The lock tag itself is not stored anywhere —
// that is the entire point of implicit tagging.
func (c *Code) Encode(data *gf2.BitVec, lockTag uint64) uint64 {
	if data.Len() != c.k {
		panic(fmt.Sprintf("core: Encode expects %d data bits, got %d", c.k, data.Len()))
	}
	return c.dataSyndrome(data) ^ c.TagSyndrome(lockTag)
}

func (c *Code) dataSyndrome(data *gf2.BitVec) uint64 {
	var s uint64
	for w, word := range data.Words() {
		base := w * 64
		for word != 0 {
			b := bits.TrailingZeros64(word)
			s ^= c.dataCols[base+b]
			word &= word - 1
		}
	}
	return s
}

// Result describes an AFT-ECC decode outcome.
type Result struct {
	Status   Status
	Syndrome uint64
	// FlippedBit is the repaired physical bit (0..K+R-1) when
	// Status == StatusCorrected, else -1.
	FlippedBit int
	// LockTagEstimate is the decoder's reconstruction of the stored lock
	// tag when Status == StatusTMM: keyTag ⊕ tag-error-pattern (§4.3).
	// If a multi-bit data error was misattributed as a TMM the estimate is
	// corrupted — which is exactly why §4.3's precise diagnosis exists.
	// It is meaningful only for StatusTMM.
	LockTagEstimate uint64
}

// Decode checks received data and check bits against keyTag. Single-bit
// data/check errors are corrected in place (data is mutated when the
// repaired bit is a data bit). A syndrome in the tag column space reports
// StatusTMM with a lock-tag estimate; other nonzero syndromes are DUEs.
func (c *Code) Decode(data *gf2.BitVec, check uint64, keyTag uint64) Result {
	s := c.dataSyndrome(data) ^ check ^ c.TagSyndrome(keyTag)
	return c.resolve(data, s, keyTag)
}

// DecodeSyndrome classifies a precomputed syndrome without touching data.
// It is used by the fault-injection harness, where millions of syndromes
// are evaluated without materializing codewords.
func (c *Code) DecodeSyndrome(s uint64, keyTag uint64) Result {
	return c.resolve(nil, s, keyTag)
}

func (c *Code) resolve(data *gf2.BitVec, s uint64, keyTag uint64) Result {
	if s == 0 {
		return Result{Status: StatusOK, FlippedBit: -1}
	}
	if bit, ok := c.synToBit[s]; ok {
		if data != nil && bit < c.k {
			data.Flip(bit)
		}
		return Result{Status: StatusCorrected, Syndrome: s, FlippedBit: bit}
	}
	if pattern, ok := c.tagSolve.Solve(s); ok {
		return Result{
			Status:          StatusTMM,
			Syndrome:        s,
			FlippedBit:      -1,
			LockTagEstimate: (keyTag ^ pattern) & c.TagMask(),
		}
	}
	return Result{Status: StatusDUE, Syndrome: s, FlippedBit: -1}
}

// ErrorSyndrome computes H*e for an N-bit virtual error pattern (tag bits
// included), per Equation 2.
func (c *Code) ErrorSyndrome(err *gf2.BitVec) uint64 {
	if err.Len() != c.N() {
		panic(fmt.Sprintf("core: ErrorSyndrome expects %d bits, got %d", c.N(), err.Len()))
	}
	var s uint64
	for _, i := range err.SetBits() {
		s ^= c.Column(i)
	}
	return s
}

// PhysicalErrorSyndrome computes the syndrome of an error pattern over the
// physical (data+check) bits only.
func (c *Code) PhysicalErrorSyndrome(err *gf2.BitVec) uint64 {
	if err.Len() != c.PhysicalBits() {
		panic(fmt.Sprintf("core: PhysicalErrorSyndrome expects %d bits, got %d", c.PhysicalBits(), err.Len()))
	}
	var s uint64
	for _, i := range err.SetBits() {
		s ^= c.physColumn(i)
	}
	return s
}

// TagSyndromeTable returns the syndrome → tag-error-pattern table (the
// "2^R−1 entry syndrome lookup table" the driver uses for lock tag
// extraction in §4.3). The decoder never holds it: this enumerates all
// 2^TS patterns on demand, keeping for each syndrome the first pattern
// that reaches it and leaving out the zero syndrome and the correctable
// columns, which the decoder resolves first. It panics if TS > 24.
func (c *Code) TagSyndromeTable() map[uint64]uint64 {
	if c.ts > 24 {
		panic(fmt.Sprintf("core: TagSyndromeTable limited to TS ≤ 24, have %d", c.ts))
	}
	out := make(map[uint64]uint64, 1<<uint(c.ts))
	for pattern := uint64(1); pattern < 1<<uint(c.ts); pattern++ {
		s := c.tag.MulBits(pattern)
		if _, corr := c.synToBit[s]; s == 0 || corr {
			continue
		}
		if _, dup := out[s]; !dup {
			out[s] = pattern
		}
	}
	return out
}

// IsTagSyndrome reports whether s lies in the column space of the tag
// submatrix (and would therefore be reported as a TMM), returning the
// corresponding tag-error pattern, the smallest one if T aliases.
func (c *Code) IsTagSyndrome(s uint64) (pattern uint64, ok bool) {
	if _, corr := c.synToBit[s]; s == 0 || corr {
		return 0, false
	}
	return c.tagSolve.Solve(s)
}

func (c *Code) String() string {
	return fmt.Sprintf("AFT-ECC(K=%d, R=%d, TS=%d)", c.k, c.r, c.ts)
}
