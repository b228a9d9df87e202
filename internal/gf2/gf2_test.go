package gf2

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	mask := m.rowMask()
	for j := 0; j < cols; j++ {
		m.SetCol(j, rng.Uint64()&mask)
	}
	return m
}

func TestIdentity(t *testing.T) {
	id := Identity(8)
	if id.Rows() != 8 || id.Cols() != 8 {
		t.Fatalf("identity shape = %dx%d, want 8x8", id.Rows(), id.Cols())
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := 0
			if i == j {
				want = 1
			}
			if got := id.Get(i, j); got != want {
				t.Errorf("I[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
	if id.Rank() != 8 {
		t.Errorf("identity rank = %d, want 8", id.Rank())
	}
	if !id.HasFullColumnRank() {
		t.Error("identity should have full column rank")
	}
}

func TestGetSet(t *testing.T) {
	m := NewMatrix(10, 5)
	m.Set(3, 2, 1)
	if m.Get(3, 2) != 1 {
		t.Error("Set(3,2,1) not visible via Get")
	}
	if m.Col(2) != 1<<3 {
		t.Errorf("Col(2) = %b, want %b", m.Col(2), 1<<3)
	}
	m.Set(3, 2, 0)
	if m.Get(3, 2) != 0 {
		t.Error("Set(3,2,0) did not clear the bit")
	}
}

func TestRankProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(16)
		cols := 1 + rng.Intn(40)
		m := randomMatrix(rng, rows, cols)
		r := m.Rank()
		if r > rows || r > cols {
			t.Fatalf("rank %d exceeds min(%d,%d)", r, rows, cols)
		}
		// Rank is invariant under column permutation.
		perm := rng.Perm(cols)
		p := NewMatrix(rows, cols)
		for j, pj := range perm {
			p.SetCol(j, m.Col(pj))
		}
		if p.Rank() != r {
			t.Fatalf("rank changed under column permutation: %d vs %d", p.Rank(), r)
		}
		// Duplicating a column never increases rank.
		d := Concat(m, m.Submatrix(0, 1))
		if d.Rank() != r {
			t.Fatalf("rank changed when duplicating a column: %d vs %d", d.Rank(), r)
		}
	}
}

func TestSolveColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(16)
		cols := 1 + rng.Intn(20)
		m := randomMatrix(rng, rows, cols)
		// Pick a random combination and verify Solve inverts it.
		var comb uint64
		if cols >= 64 {
			comb = rng.Uint64()
		} else {
			comb = rng.Uint64() & ((1 << uint(cols)) - 1)
		}
		target := uint64(0)
		for x := comb; x != 0; x &= x - 1 {
			target ^= m.Col(bits.TrailingZeros64(x))
		}
		x, ok := m.Eliminate().Solve(target)
		if !ok {
			t.Fatal("Solve failed on a constructed member")
		}
		// The returned combination must reproduce the target (it need not
		// equal comb when columns are dependent).
		got := uint64(0)
		for y := x; y != 0; y &= y - 1 {
			got ^= m.Col(bits.TrailingZeros64(y))
		}
		if got != target {
			t.Fatalf("Solve solution does not satisfy m*x = v: %x vs %x", got, target)
		}
	}
	// A vector outside the column space must be rejected.
	m := FromColumns(4, []uint64{0b0011, 0b0110}) // spans even-weight vectors in low 3 rows
	if _, ok := m.Eliminate().Solve(0b1000); ok {
		t.Error("Solve accepted a vector outside the column space")
	}
}

// TestEliminateSmallestPreimage checks Eliminate against brute force on
// small matrices of every rank: the kernel has Cols − Rank vectors, each
// with zero product, and Solve returns exactly the smallest x with
// m * x = v for every v (ok=false for v outside the column space).
func TestEliminateSmallestPreimage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(10)
		m := randomMatrix(rng, rows, cols)
		if trial%3 == 0 && cols > 2 { // force dependent columns
			m.SetCol(cols-1, m.Col(0)^m.Col(1))
		}
		e := m.Eliminate()
		kernel := e.Kernel()
		if len(kernel) != cols-m.Rank() {
			t.Fatalf("kernel has %d vectors, want Cols − Rank = %d", len(kernel), cols-m.Rank())
		}
		for _, k := range kernel {
			if k == 0 || m.MulBits(k) != 0 {
				t.Fatalf("kernel vector %#x: product %#x", k, m.MulBits(k))
			}
		}
		smallest := map[uint64]uint64{}
		for x := uint64(1<<uint(cols)) - 1; ; x-- {
			smallest[m.MulBits(x)] = x
			if x == 0 {
				break
			}
		}
		for v := uint64(0); v < 1<<uint(rows); v++ {
			want, in := smallest[v]
			got, ok := e.Solve(v)
			if ok != in || got != want {
				t.Fatalf("%dx%d: Solve(%#x) = (%#x, %v), want (%#x, %v)", rows, cols, v, got, ok, want, in)
			}
		}
	}
}

func TestMulVecMatchesMulBits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		rows := 1 + rng.Intn(16)
		cols := 1 + rng.Intn(60)
		m := randomMatrix(rng, rows, cols)
		x := rng.Uint64() & ((1 << uint(cols)) - 1)
		bv := NewBitVec(cols)
		for i := 0; i < cols; i++ {
			bv.Set(i, int(x>>uint(i)&1))
		}
		if m.MulBits(x) != m.MulVec(bv) {
			t.Fatal("MulBits and MulVec disagree")
		}
	}
}

func TestMulVecLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, 12, 200)
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		a := NewBitVec(200)
		b := NewBitVec(200)
		for i := 0; i < 200; i++ {
			a.Set(i, ra.Intn(2))
			b.Set(i, rb.Intn(2))
		}
		sum := a.Clone()
		sum.Xor(b)
		return m.MulVec(sum) == m.MulVec(a)^m.MulVec(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcatSubmatrix(t *testing.T) {
	a := FromColumns(4, []uint64{1, 2})
	b := FromColumns(4, []uint64{4, 8, 15})
	c := Concat(a, b)
	if c.Cols() != 5 {
		t.Fatalf("Concat cols = %d, want 5", c.Cols())
	}
	if !c.Submatrix(0, 2).Equal(a) || !c.Submatrix(2, 5).Equal(b) {
		t.Error("Submatrix does not recover Concat operands")
	}
}

func TestWeightHelpers(t *testing.T) {
	m := FromColumns(4, []uint64{0b0111, 0b1011, 0b0011})
	if m.AllColumnsOddWeight() {
		t.Error("matrix with a weight-2 column reported all-odd")
	}
	if m.AllColumnsEvenWeight() {
		t.Error("matrix with weight-3 columns reported all-even")
	}
	odd := FromColumns(4, []uint64{0b0111, 0b1011})
	if !odd.AllColumnsOddWeight() {
		t.Error("all-odd matrix not detected")
	}
	even := FromColumns(4, []uint64{0b0011, 0b0110})
	if !even.AllColumnsEvenWeight() {
		t.Error("all-even matrix not detected")
	}
	if got := m.TotalOnes(); got != 8 {
		t.Errorf("TotalOnes = %d, want 8", got)
	}
	w := m.RowWeights()
	want := []int{3, 3, 1, 1}
	for i := range want {
		if w[i] != want[i] {
			t.Errorf("RowWeights[%d] = %d, want %d", i, w[i], want[i])
		}
	}
	if m.MaxRowWeight() != 3 {
		t.Errorf("MaxRowWeight = %d, want 3", m.MaxRowWeight())
	}
}

func TestColumnsDistinct(t *testing.T) {
	if !FromColumns(4, []uint64{1, 2, 3}).ColumnsDistinct() {
		t.Error("distinct columns reported as duplicated")
	}
	if FromColumns(4, []uint64{1, 2, 1}).ColumnsDistinct() {
		t.Error("duplicate columns not detected")
	}
}

func TestMatrixString(t *testing.T) {
	// Column 0 = rows {0,1}, column 1 = rows {1,2}: the 3-row staircase.
	m := FromColumns(3, []uint64{0b011, 0b110})
	want := "01\n11\n10"
	if got := m.String(); got != want {
		t.Errorf("String() =\n%s\nwant\n%s", got, want)
	}
}

func TestBitVecBasics(t *testing.T) {
	v := NewBitVec(130)
	v.Set(0, 1)
	v.Set(64, 1)
	v.Set(129, 1)
	if v.Weight() != 3 {
		t.Fatalf("weight = %d, want 3", v.Weight())
	}
	got := v.SetBits()
	want := []int{0, 64, 129}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SetBits = %v, want %v", got, want)
		}
	}
	v.Flip(64)
	if v.Get(64) != 0 || v.Weight() != 2 {
		t.Error("Flip did not clear bit 64")
	}
	c := v.Clone()
	if !c.Equal(v) {
		t.Error("clone not equal to original")
	}
	c.Xor(v)
	if !c.IsZero() {
		t.Error("v ⊕ v should be zero")
	}
}

func TestBitVecBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 64 {
			data = data[:64]
		}
		n := len(data) * 8
		v := BitVecFromBytes(n, data)
		out := v.Bytes()
		for i := range data {
			if out[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitVecBytesPartial(t *testing.T) {
	// 12-bit vector from 2 bytes: the top 4 bits of the second byte are masked.
	v := BitVecFromBytes(12, []byte{0xFF, 0xFF})
	if v.Weight() != 12 {
		t.Fatalf("weight = %d, want 12", v.Weight())
	}
	b := v.Bytes()
	if b[0] != 0xFF || b[1] != 0x0F {
		t.Errorf("Bytes = %x, want ff0f", b)
	}
}

func TestBitVecString(t *testing.T) {
	v := NewBitVec(4)
	v.Set(0, 1)
	v.Set(3, 1)
	if got := v.String(); got != "1001" {
		t.Errorf("String = %q, want 1001", got)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewMatrix rows>64", func() { NewMatrix(65, 1) })
	mustPanic("Get out of range", func() { NewMatrix(4, 4).Get(4, 0) })
	mustPanic("SetCol overflow", func() { NewMatrix(2, 1).SetCol(0, 0b100) })
	mustPanic("BitVec Get out of range", func() { NewBitVec(4).Get(4) })
	mustPanic("Xor mismatch", func() { NewBitVec(4).Xor(NewBitVec(5)) })
	mustPanic("MulVec mismatch", func() { NewMatrix(4, 4).MulVec(NewBitVec(5)) })
}
