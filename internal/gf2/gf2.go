package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

// Matrix is a column-major binary matrix with Rows ≤ 64.
// Column j is stored as the uint64 Col[j]; bit i of Col[j] is entry (i, j).
type Matrix struct {
	rows int
	cols []uint64
}

// NewMatrix returns a zero matrix with the given dimensions.
// It panics if rows is not in [0, 64] or cols is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || rows > 64 {
		panic(fmt.Sprintf("gf2: row count %d out of range [0,64]", rows))
	}
	if cols < 0 {
		panic(fmt.Sprintf("gf2: negative column count %d", cols))
	}
	return &Matrix{rows: rows, cols: make([]uint64, cols)}
}

// FromColumns builds a matrix from explicit column bit-vectors.
// The columns are copied.
func FromColumns(rows int, cols []uint64) *Matrix {
	m := NewMatrix(rows, len(cols))
	mask := m.rowMask()
	for j, c := range cols {
		if c&^mask != 0 {
			panic(fmt.Sprintf("gf2: column %d has bits above row %d", j, rows))
		}
		m.cols[j] = c
	}
	return m
}

// Identity returns the r×r identity matrix.
func Identity(r int) *Matrix {
	m := NewMatrix(r, r)
	for i := 0; i < r; i++ {
		m.cols[i] = 1 << uint(i)
	}
	return m
}

func (m *Matrix) rowMask() uint64 {
	if m.rows == 64 {
		return ^uint64(0)
	}
	return (1 << uint(m.rows)) - 1
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return len(m.cols) }

// Col returns column j as a bit-vector (bit i = entry (i,j)).
func (m *Matrix) Col(j int) uint64 { return m.cols[j] }

// SetCol replaces column j.
func (m *Matrix) SetCol(j int, v uint64) {
	if v&^m.rowMask() != 0 {
		panic("gf2: SetCol value has bits above the row count")
	}
	m.cols[j] = v
}

// Get returns entry (i, j) as 0 or 1.
func (m *Matrix) Get(i, j int) int {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("gf2: row index %d out of range", i))
	}
	return int(m.cols[j] >> uint(i) & 1)
}

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j, v int) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("gf2: row index %d out of range", i))
	}
	if v&1 == 1 {
		m.cols[j] |= 1 << uint(i)
	} else {
		m.cols[j] &^= 1 << uint(i)
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, len(m.cols))
	copy(c.cols, m.cols)
	return c
}

// Equal reports whether m and o have identical shape and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || len(m.cols) != len(o.cols) {
		return false
	}
	for j := range m.cols {
		if m.cols[j] != o.cols[j] {
			return false
		}
	}
	return true
}

// Concat returns the horizontal concatenation [m | others...].
// All operands must have the same row count.
func Concat(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("gf2: Concat of nothing")
	}
	rows := ms[0].rows
	total := 0
	for _, m := range ms {
		if m.rows != rows {
			panic("gf2: Concat row-count mismatch")
		}
		total += len(m.cols)
	}
	out := NewMatrix(rows, total)
	j := 0
	for _, m := range ms {
		copy(out.cols[j:], m.cols)
		j += len(m.cols)
	}
	return out
}

// Submatrix returns the column slice [lo, hi) as a new matrix.
func (m *Matrix) Submatrix(lo, hi int) *Matrix {
	out := NewMatrix(m.rows, hi-lo)
	copy(out.cols, m.cols[lo:hi])
	return out
}

// MulVec computes m * x over GF(2), where x is a length-Cols bit vector.
// The result is the XOR of the columns of m selected by the set bits of x.
func (m *Matrix) MulVec(x *BitVec) uint64 {
	if x.Len() != len(m.cols) {
		panic(fmt.Sprintf("gf2: MulVec length mismatch: %d columns, %d-bit vector", len(m.cols), x.Len()))
	}
	var s uint64
	for w, word := range x.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			s ^= m.cols[w*64+b]
			word &= word - 1
		}
	}
	return s
}

// MulBits computes m * x where x is given as the low Cols bits of a uint64.
// It panics if Cols > 64.
func (m *Matrix) MulBits(x uint64) uint64 {
	if len(m.cols) > 64 {
		panic("gf2: MulBits requires ≤64 columns")
	}
	var s uint64
	for x != 0 {
		b := bits.TrailingZeros64(x)
		s ^= m.cols[b]
		x &= x - 1
	}
	return s
}

// Rank returns the rank of the matrix over GF(2).
func (m *Matrix) Rank() int {
	// Gaussian elimination over the column vectors: maintain a basis in
	// row-echelon form keyed by leading (lowest) set bit.
	var basis [64]uint64
	rank := 0
	for _, c := range m.cols {
		v := c
		for v != 0 {
			lead := bits.TrailingZeros64(v)
			if basis[lead] == 0 {
				basis[lead] = v
				rank++
				break
			}
			v ^= basis[lead]
		}
	}
	return rank
}

// HasFullColumnRank reports whether the columns are linearly independent.
func (m *Matrix) HasFullColumnRank() bool {
	return m.Rank() == len(m.cols)
}

// Elimination is a matrix row-reduced once over its columns: a pivot per
// independent column, keyed by its lowest set bit and carrying the
// combination of original columns that XOR into it, plus a basis of the
// kernel. Membership and preimage queries then take at most Rows steps,
// with no enumeration of the column space.
type Elimination struct {
	pivot [64]uint64 // pivot[b]: reduced vector with lowest set bit b, or 0
	comb  [64]uint64 // comb[b]: column-index mask with m * comb[b] = pivot[b]
	// kernel holds a nonzero x with m * x = 0 for each dependent column
	// j: j's bit plus pivot columns below j.
	kernel []uint64
}

// Eliminate row-reduces m's columns. It panics if Cols > 64.
func (m *Matrix) Eliminate() *Elimination {
	if len(m.cols) > 64 {
		panic("gf2: Eliminate requires ≤64 columns")
	}
	e := &Elimination{}
	for j, c := range m.cols {
		v, x := c, uint64(1)<<uint(j)
		for v != 0 {
			lead := bits.TrailingZeros64(v)
			if e.pivot[lead] == 0 {
				e.pivot[lead], e.comb[lead] = v, x
				break
			}
			v ^= e.pivot[lead]
			x ^= e.comb[lead]
		}
		if v == 0 {
			// Every pivot so far came from columns before j, so x's
			// highest set bit is j.
			e.kernel = append(e.kernel, x)
		}
	}
	return e
}

// Kernel returns a basis of the kernel {x ≠ 0 : m * x = 0}; it is empty
// exactly when m has full column rank.
func (e *Elimination) Kernel() []uint64 { return append([]uint64(nil), e.kernel...) }

// Solve finds x with m * x = v, or ok=false if v is outside the column
// space. Of the solutions (one coset of the kernel) it returns the
// numerically smallest: every pivot's combination is built from earlier
// pivots' combinations, so x uses only columns that became pivots and
// has no bit at a dependent column; any other solution differs from it
// by a nonzero kernel vector, whose highest set bit is a dependent
// column, so it has that bit set and is larger.
func (e *Elimination) Solve(v uint64) (x uint64, ok bool) {
	for v != 0 {
		lead := bits.TrailingZeros64(v)
		if e.pivot[lead] == 0 {
			return 0, false
		}
		v ^= e.pivot[lead]
		x ^= e.comb[lead]
	}
	return x, true
}

// RowWeights returns the number of ones in each row.
func (m *Matrix) RowWeights() []int {
	w := make([]int, m.rows)
	for _, c := range m.cols {
		for v := c; v != 0; v &= v - 1 {
			w[bits.TrailingZeros64(v)]++
		}
	}
	return w
}

// MaxRowWeight returns the largest row weight (0 for an empty matrix).
func (m *Matrix) MaxRowWeight() int {
	max := 0
	for _, w := range m.RowWeights() {
		if w > max {
			max = w
		}
	}
	return max
}

// TotalOnes returns the number of ones in the matrix.
func (m *Matrix) TotalOnes() int {
	n := 0
	for _, c := range m.cols {
		n += bits.OnesCount64(c)
	}
	return n
}

// AllColumnsOddWeight reports whether every column has odd weight.
func (m *Matrix) AllColumnsOddWeight() bool {
	for _, c := range m.cols {
		if bits.OnesCount64(c)%2 == 0 {
			return false
		}
	}
	return true
}

// AllColumnsEvenWeight reports whether every column has even weight.
func (m *Matrix) AllColumnsEvenWeight() bool {
	for _, c := range m.cols {
		if bits.OnesCount64(c)%2 != 0 {
			return false
		}
	}
	return true
}

// ColumnsDistinct reports whether all columns are pairwise distinct.
func (m *Matrix) ColumnsDistinct() bool {
	seen := make(map[uint64]struct{}, len(m.cols))
	for _, c := range m.cols {
		if _, dup := seen[c]; dup {
			return false
		}
		seen[c] = struct{}{}
	}
	return true
}

// String renders the matrix as rows of 0/1 characters, one row per line,
// column 0 rightmost — matching the parity-check-matrix layout used in the
// paper's Equation 6.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := len(m.cols) - 1; j >= 0; j-- {
			if m.Get(i, j) == 1 {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		if i != m.rows-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
