package bitslice

import (
	"math/bits"
	"math/rand"
	"testing"
)

// mustTable writes the class table of spec or fails the test.
func mustTable(t testing.TB, spec TableSpec) Table {
	t.Helper()
	table, err := NewTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// testEngine builds a small SECDED-shaped engine by hand: 12 physical
// columns over r=5 rows with a class table marking each column
// correctable, one extra syndrome as tag space, everything else other.
func testEngine(t testing.TB) *Engine {
	t.Helper()
	cols := []uint64{0x03, 0x05, 0x06, 0x09, 0x0A, 0x0C, 0x11, 0x12, 0x14, 0x18, 0x07, 0x0B}
	table := mustTable(t, TableSpec{R: 5, Tag: []uint64{0x1F}, Corr: cols, CorrClass: ClassCorrectable})
	eng, err := New(cols, table)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNewValidation(t *testing.T) {
	cols := []uint64{1, 2, 3}
	okTable := mustTable(t, TableSpec{R: 2})
	cases := []struct {
		name  string
		cols  []uint64
		table Table
	}{
		{"r too small", cols, Table{}},
		{"no columns", nil, okTable},
		{"column out of range", []uint64{1, 4}, okTable},
	}
	for _, c := range cases {
		if _, err := New(c.cols, c.table); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := New(cols, okTable); err != nil {
		t.Errorf("valid engine rejected: %v", err)
	}
}

func TestNewTableValidation(t *testing.T) {
	cases := []struct {
		name string
		spec TableSpec
	}{
		{"r too small", TableSpec{R: 0}},
		{"r above the table bound", TableSpec{R: MaxR + 1}},
		{"tag column out of range", TableSpec{R: 2, Tag: []uint64{4}}},
		{"correctable column out of range", TableSpec{R: 2, Corr: []uint64{1, 8}}},
		{"invalid class value", TableSpec{R: 2, Corr: []uint64{1}, CorrClass: 7}},
	}
	for _, c := range cases {
		if _, err := NewTable(c.spec); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestNewTableMatchesEnumeration holds Class to the plain definition —
// enumerate the tag span, then set zero and Corr — and the weights and
// checks to the Corr popcounts and the span, on random specs for every
// r up to MaxR, with tag columns that repeat, vanish or depend on each
// other.
func TestNewTableMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		r := 1 + trial%MaxR
		mask := uint64(1)<<uint(r) - 1
		var tag, corr []uint64
		for i := rng.Intn(r + 3); i > 0; i-- {
			switch c := rng.Uint64() & mask; rng.Intn(4) {
			case 0:
				tag = append(tag, 0)
			case 1:
				if len(tag) > 1 {
					c = tag[rng.Intn(len(tag))] ^ tag[rng.Intn(len(tag))]
				}
				tag = append(tag, c)
			default:
				tag = append(tag, c)
			}
		}
		for i := rng.Intn(2 * r); i > 0; i-- {
			corr = append(corr, rng.Uint64()&mask)
		}
		corrClass := []Class{ClassCorrectable, ClassZero}[trial%2]
		got := mustTable(t, TableSpec{R: r, Tag: tag, Corr: corr, CorrClass: corrClass})

		inSpan := make([]bool, 1<<uint(r))
		inSpan[0] = true
		span := []uint64{0}
		for _, g := range tag {
			if inSpan[g] {
				continue
			}
			for _, v := range span {
				inSpan[v^g] = true
				span = append(span, v^g)
			}
		}
		want := make([]Class, 1<<uint(r))
		for s, in := range inSpan {
			want[s] = ClassOther
			if in {
				want[s] = ClassTag
			}
		}
		want[0] = ClassZero
		for _, c := range corr {
			if c != 0 {
				want[c] = corrClass
			}
		}
		for s, w := range want {
			if c := got.Class(uint64(s)); c != w {
				t.Fatalf("trial %d (r=%d tag=%#x corr=%#x): class[%#x] = %d, want %d", trial, r, tag, corr, s, c, w)
			}
		}
		// weights: the popcounts of the nonzero Corr syndromes.
		var weights uint32
		for _, c := range corr {
			if c != 0 {
				weights |= 1 << uint(bits.OnesCount64(c))
			}
		}
		if got.weights != weights {
			t.Fatalf("trial %d (r=%d corr=%#x): weights = %#x, want %#x", trial, r, corr, got.weights, weights)
		}
		// checks: one per dimension the span lacks, all of even parity
		// exactly on the span.
		if rank := bits.TrailingZeros(uint(len(span))); len(got.checks) != r-rank {
			t.Fatalf("trial %d (r=%d tag=%#x): %d checks, want r - rank = %d", trial, r, tag, len(got.checks), r-rank)
		}
		for s, want := range inSpan {
			even := true
			for _, c := range got.checks {
				even = even && bits.OnesCount32(uint32(s)&c)%2 == 0
			}
			if even != want {
				t.Fatalf("trial %d (r=%d tag=%#x checks=%#x): syndrome %#x passes checks = %v, in span = %v", trial, r, tag, got.checks, s, even, want)
			}
		}
	}
}

// TestNewCopiesInputs: an engine copies its columns, and reads its
// table's bitmap rather than a copy (tables are immutable).
func TestNewCopiesInputs(t *testing.T) {
	cols := []uint64{1, 2, 3}
	table := mustTable(t, TableSpec{R: 2, Corr: cols, CorrClass: ClassCorrectable})
	eng, err := New(cols, table)
	if err != nil {
		t.Fatal(err)
	}
	if &eng.table.corr[0] != &table.corr[0] {
		t.Fatal("engine must share its table's bitmap")
	}
	b := eng.NewBatch()
	b.Flip(0, 0)
	b.SetLaneRange(0, 1)
	before := eng.Classify(b)
	cols[0] = 2
	if after := eng.Classify(b); before != after {
		t.Fatal("engine must copy its columns at construction")
	}
}

// TestTallyConservation: the five outcome masks partition the live-lane
// mask for random batches under random lane subsets.
func TestTallyConservation(t *testing.T) {
	eng := testEngine(t)
	rng := rand.New(rand.NewSource(11))
	batch := eng.NewBatch()
	for trial := 0; trial < 500; trial++ {
		batch.Reset()
		r := NewRand(rng.Uint64())
		batch.Random(r)
		lo := rng.Intn(64)
		hi := lo + 1 + rng.Intn(64-lo)
		batch.SetLaneRange(lo, hi)

		m := eng.ClassifyMasks(batch)
		if m.OK|m.CE|m.DUE|m.TMM|m.SDC != m.Live {
			t.Fatalf("trial %d: outcome masks do not cover live lanes", trial)
		}
		if m.OK&m.CE|m.OK&m.DUE|m.CE&m.DUE|m.TMM&m.SDC|m.OK&m.SDC|m.CE&m.SDC|m.DUE&m.SDC|m.OK&m.TMM|m.CE&m.TMM|m.DUE&m.TMM != 0 {
			t.Fatalf("trial %d: outcome masks overlap", trial)
		}
		c := eng.Classify(batch)
		if c.OK+c.CE+c.DUE+c.TMM+c.SDC != c.Total {
			t.Fatalf("trial %d: counts do not sum to total: %+v", trial, c)
		}
		if c.Total != uint64(bits.OnesCount64(m.Live)) || c.Total != uint64(hi-lo) {
			t.Fatalf("trial %d: total %d != live lanes %d", trial, c.Total, hi-lo)
		}
	}
}

// TestLanePermutationInvariance: shuffling patterns across lanes leaves
// the summed tally unchanged.
func TestLanePermutationInvariance(t *testing.T) {
	eng := testEngine(t)
	rng := rand.New(rand.NewSource(12))
	a := eng.NewBatch()
	b := eng.NewBatch()
	for trial := 0; trial < 200; trial++ {
		a.Reset()
		b.Reset()
		a.Random(NewRand(rng.Uint64()))
		a.SetLaneRange(0, 64)
		perm := rng.Perm(64)
		for bit := 0; bit < eng.NPhys(); bit++ {
			for lane := 0; lane < 64; lane++ {
				if a.Get(lane, bit) {
					b.Flip(perm[lane], bit)
				}
			}
		}
		b.SetLaneRange(0, 64)
		if eng.Classify(a) != eng.Classify(b) {
			t.Fatalf("trial %d: lane permutation changed the tally", trial)
		}
	}
}

// TestAliasClassZeroTable: a table assigning ClassZero to a nonzero
// syndrome (an aliasing construction, as tagEngine builds for
// correctable tag aliases) must classify lanes hitting that syndrome as
// SDC and keep the partition/conservation invariants — regression for
// the sampled TagCorruptions path silently dropping aliased lanes.
func TestAliasClassZeroTable(t *testing.T) {
	cols := []uint64{1, 2, 4, 3, 5}
	// Syndrome 3 is aliased: the decoder silently accepts it.
	table := mustTable(t, TableSpec{R: 3, Corr: []uint64{3}, CorrClass: ClassZero})
	eng, err := New(cols, table)
	if err != nil {
		t.Fatal(err)
	}
	b := eng.NewBatch()
	b.Flip(0, 3) // weight 1, syndrome 3 → aliased → SDC
	b.Flip(1, 0) // weight 2, syndrome 1^2=3 → aliased → SDC
	b.Flip(1, 1)
	b.Flip(2, 0) // weight 1, syndrome 1 → ClassOther → DUE
	b.SetLaneRange(0, 4)
	m := eng.ClassifyMasks(b)
	if m.OK|m.CE|m.DUE|m.TMM|m.SDC != m.Live {
		t.Fatalf("outcome masks do not partition live lanes: %+v", m)
	}
	for lane, want := range []Outcome{OutcomeSDC, OutcomeSDC, OutcomeDUE, OutcomeOK} {
		if got, live := m.Outcome(lane); !live || got != want {
			t.Errorf("lane %d: got (%v, live=%v), want %v", lane, got, live, want)
		}
	}
	c := eng.Classify(b)
	if c.OK+c.CE+c.DUE+c.TMM+c.SDC != c.Total || c.Total != 4 {
		t.Fatalf("counts do not sum to total: %+v", c)
	}
	if c.SDC != 2 {
		t.Fatalf("aliased lanes must land in SDC: %+v", c)
	}

	// Conservation holds for random batches against the aliasing table.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		b.Reset()
		b.Random(NewRand(rng.Uint64()))
		b.SetLaneRange(0, 64)
		c := eng.Classify(b)
		if c.OK+c.CE+c.DUE+c.TMM+c.SDC != c.Total {
			t.Fatalf("trial %d: counts do not sum to total: %+v", trial, c)
		}
	}
}

func TestBatchResetSparseAndBulk(t *testing.T) {
	eng := testEngine(t)
	b := eng.NewBatch()
	b.Flip(3, 2)
	b.Flip(9, 7)
	b.Reset()
	for lane := 0; lane < 64; lane++ {
		if got := b.LaneBits(lane); len(got) != 0 {
			t.Fatalf("lane %d not cleared after sparse reset: %v", lane, got)
		}
	}
	b.Random(NewRand(1))
	b.Reset()
	for lane := 0; lane < 64; lane++ {
		if got := b.LaneBits(lane); len(got) != 0 {
			t.Fatalf("lane %d not cleared after bulk reset: %v", lane, got)
		}
	}
}

func TestRandomNonzero(t *testing.T) {
	eng := testEngine(t)
	b := eng.NewBatch()
	for trial := 0; trial < 100; trial++ {
		b.Reset()
		b.RandomNonzero(NewRand(uint64(trial)))
		for lane := 0; lane < 64; lane++ {
			if len(b.LaneBits(lane)) == 0 {
				t.Fatalf("trial %d: lane %d is zero after RandomNonzero", trial, lane)
			}
		}
	}
}

// TestBatchRandomStream pins the plane stream: Random gives plane i the
// (i+1)-th word of its generator and leaves the generator where one
// Uint64 call per plane would, and RandomNonzero matches a word-at-a-
// time reference — for even and odd plane counts alike.
func TestBatchRandomStream(t *testing.T) {
	for _, n := range []int{1, 2, 3, 15, 64, 65, 272} {
		for seed := uint64(0); seed < 4; seed++ {
			b := &Batch{planes: make([]uint64, n)}
			rng, ref := NewRand(seed), NewRand(seed)
			b.Random(rng)
			for i, p := range b.planes {
				if want := ref.Uint64(); p != want {
					t.Fatalf("n=%d seed=%d: plane %d = %#x, want %#x", n, seed, i, p, want)
				}
			}
			if got, want := rng.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("n=%d seed=%d: generator left at %#x, want %#x", n, seed, got, want)
			}

			rng, ref = NewRand(seed), NewRand(seed)
			b.RandomNonzero(rng)
			want := randomNonzeroRef(ref, n)
			for i, p := range b.planes {
				if p != want[i] {
					t.Fatalf("n=%d seed=%d: RandomNonzero plane %d = %#x, want %#x", n, seed, i, p, want[i])
				}
			}
			if got, want := rng.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("n=%d seed=%d: RandomNonzero left the generator at %#x, want %#x", n, seed, got, want)
			}
		}
	}
}

// TestFoldMatchesOneAccumulator holds the unrolled fold to a plain
// one-accumulator XOR over index lists of every length up to two
// unrolled steps and a tail, a K=64 R=12 Hsiao row (19 indices) and an
// IMT-16 row (49), drawn from all 272 planes, from 5 (so indices
// repeat and cancel) or from 1 (one index repeated).
func TestFoldMatchesOneAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	planes := make([]uint64, 272)
	for i := range planes {
		planes[i] = rng.Uint64()
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 19, 49} {
		for _, span := range []int{len(planes), 5, 1} {
			for trial := 0; trial < 20; trial++ {
				idx := make([]int32, n)
				for i := range idx {
					idx[i] = int32(rng.Intn(span))
				}
				var want uint64
				for _, i := range idx {
					want ^= planes[i]
				}
				if got := fold(planes, idx); got != want {
					t.Fatalf("n=%d span=%d idx=%v: fold = %#x, want %#x", n, span, idx, got, want)
				}
			}
		}
	}
}

// randomNonzeroRef draws n planes one Uint64 at a time, then rerolls
// the all-zero lanes until none is left.
func randomNonzeroRef(rng *Rand, n int) []uint64 {
	planes := make([]uint64, n)
	for i := range planes {
		planes[i] = rng.Uint64()
	}
	for {
		var nz uint64
		for _, p := range planes {
			nz |= p
		}
		if nz == ^uint64(0) {
			return planes
		}
		for i := range planes {
			planes[i] = planes[i]&nz | rng.Uint64()&^nz
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
	if SeedForBatch(1, 0) == SeedForBatch(1, 1) || SeedForBatch(1, 0) == SeedForBatch(2, 0) {
		t.Fatal("batch seeds must differ across batches and campaign seeds")
	}
}

func TestOutcomeAccessor(t *testing.T) {
	eng := testEngine(t)
	b := eng.NewBatch()
	// lane 0: empty (OK); lane 1: one correctable bit (CE); lane 2: an
	// uncorrectable pattern or miscorrection (SDC/DUE/TMM — just live).
	b.Flip(1, 0)
	b.SetLaneRange(0, 3)
	m := eng.ClassifyMasks(b)
	if o, live := m.Outcome(0); !live || o != OutcomeOK {
		t.Fatalf("lane 0: got (%v,%v), want (OK,true)", o, live)
	}
	if o, live := m.Outcome(1); !live || o != OutcomeCE {
		t.Fatalf("lane 1: got (%v,%v), want (CE,true)", o, live)
	}
	if _, live := m.Outcome(63); live {
		t.Fatal("lane 63 should be dead")
	}
}
