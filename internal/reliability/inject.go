package reliability

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ecc/bitslice"
)

// Outcome classifies a single injection.
type Outcome uint8

const (
	// OutcomeOK: zero error, zero syndrome (only from the empty pattern).
	OutcomeOK Outcome = iota
	// OutcomeCE: a single-bit error corrected to the right bit.
	OutcomeCE
	// OutcomeDUE: detected uncorrectable error.
	OutcomeDUE
	// OutcomeTMM: detected, but attributed to a tag mismatch (for data
	// errors this is the misattribution risk of §3.6 — still detected).
	OutcomeTMM
	// OutcomeSDC: silent data corruption — a zero syndrome from a nonzero
	// error, or a miscorrection (syndrome matched the wrong column).
	OutcomeSDC
)

// Tally accumulates injection outcomes.
type Tally struct {
	Total, CE, DUE, TMM, SDC uint64
}

// DE returns detected errors: DUEs plus TMM-attributed detections.
func (t Tally) DE() uint64 { return t.DUE + t.TMM }

// Rate helpers return fractions of Total (0 when Total is 0).
func (t Tally) rate(x uint64) float64 {
	if t.Total == 0 {
		return 0
	}
	return float64(x) / float64(t.Total)
}

// CERate is the corrected fraction.
func (t Tally) CERate() float64 { return t.rate(t.CE) }

// DERate is the detected fraction (DUE + TMM).
func (t Tally) DERate() float64 { return t.rate(t.DE()) }

// TMMRate is the fraction detected via tag-mismatch attribution.
func (t Tally) TMMRate() float64 { return t.rate(t.TMM) }

// SDCRate is the silent-corruption fraction.
func (t Tally) SDCRate() float64 { return t.rate(t.SDC) }

func (t Tally) String() string {
	return fmt.Sprintf("total=%d CE=%.4f%% DE=%.4f%% (TMM=%.4f%%) SDC=%.4f%%",
		t.Total, 100*t.CERate(), 100*t.DERate(), 100*t.TMMRate(), 100*t.SDCRate())
}

// sum accumulates another tally (all fields added).
func (t Tally) sum(o Tally) Tally {
	t.Total += o.Total
	t.CE += o.CE
	t.DUE += o.DUE
	t.TMM += o.TMM
	t.SDC += o.SDC
	return t
}

// fromCounts converts a bitsliced tally: OK lanes count toward Total
// only, exactly as OutcomeOK does in Tally.Add.
func fromCounts(c bitslice.Counts) Tally {
	return Tally{Total: c.Total, CE: c.CE, DUE: c.DUE, TMM: c.TMM, SDC: c.SDC}
}

// Target is an injectable decoder: N physical bit positions, their H
// columns, and the syndrome class table bitslice.NewTable writes from
// the code's tag span and correctable columns. Construction also builds
// the bitsliced engine the batched campaigns run on, sharing that
// table. A target exists for R ≤ bitslice.MaxR; TargetECC and
// TargetAFT panic on a wider code.
type Target struct {
	Name  string
	NPhys int
	R     int
	cols  []uint64
	// table gives each of the 2^R syndromes its decode class.
	table bitslice.Table
	// eng is the bitsliced classifier over (cols, table).
	eng *bitslice.Engine
}

// Engine exposes the target's bitsliced classifier.
func (t Target) Engine() *bitslice.Engine { return t.eng }

// Columns returns the target's physical H columns (a copy).
func (t Target) Columns() []uint64 { return append([]uint64(nil), t.cols...) }

// newTarget writes the class table of spec and builds its engine. It
// panics on an error: only a code wider than bitslice.MaxR has one.
func newTarget(name string, cols []uint64, spec bitslice.TableSpec) Target {
	table, err := bitslice.NewTable(spec)
	if err != nil {
		panic(fmt.Sprintf("reliability: %s: %v", name, err))
	}
	eng, err := bitslice.New(cols, table)
	if err != nil {
		panic(fmt.Sprintf("reliability: %s: %v", name, err))
	}
	return Target{Name: name, NPhys: len(cols), R: spec.R, cols: cols, table: table, eng: eng}
}

// TargetECC wraps an untagged linear code for injection. It panics if
// R > bitslice.MaxR.
func TargetECC(c *ecc.Code) Target {
	cols := make([]uint64, c.N())
	for i := range cols {
		cols[i] = c.Column(i)
	}
	spec := bitslice.TableSpec{R: c.R(), CorrClass: bitslice.ClassCorrectable}
	if c.Kind() != ecc.DetectOnly {
		spec.Corr = cols
	}
	return newTarget(c.Name(), cols, spec)
}

// TargetAFT wraps an AFT-ECC code for physical (data+check) injection.
// Injections model data errors under matching key/lock tags, so the tag
// contributions cancel and only the physical columns matter; syndromes in
// the tag column space classify as TMM. The class table is written from
// the tag and physical column spaces by bitslice.NewTable, which
// reproduces DecodeSyndrome's verdict on every syndrome without decoding
// any. It panics if R > bitslice.MaxR.
func TargetAFT(c *core.Code) Target {
	cols := columnRange(c, c.TS(), c.N())
	return newTarget(c.String(), cols, bitslice.TableSpec{
		R:         c.R(),
		Tag:       columnRange(c, 0, c.TS()),
		Corr:      cols,
		CorrClass: bitslice.ClassCorrectable,
	})
}

// columnRange returns the H columns of virtual codeword bits [lo, hi):
// [0, TS) are the tag columns, [TS, N) the physical ones.
func columnRange(c *core.Code, lo, hi int) []uint64 {
	cols := make([]uint64, hi-lo)
	for i := range cols {
		cols[i] = c.Column(lo + i)
	}
	return cols
}

// classify maps (syndrome, error weight) to an outcome.
func (t Target) classify(s uint64, weight int) Outcome {
	return outcome(t.table.Class(s), weight)
}

// outcome maps a syndrome's class and the error's weight to an outcome,
// as the engine's mask algebra does.
func outcome(c bitslice.Class, weight int) Outcome {
	switch c {
	case bitslice.ClassZero:
		if weight == 0 {
			return OutcomeOK
		}
		return OutcomeSDC
	case bitslice.ClassCorrectable:
		if weight == 1 {
			return OutcomeCE
		}
		return OutcomeSDC // miscorrection of a multi-bit error
	case bitslice.ClassTag:
		return OutcomeTMM
	default:
		return OutcomeDUE
	}
}

// Add returns the tally with one outcome accumulated.
func (t Tally) Add(o Outcome) Tally { return t.addN(o, 1) }

// addN returns the tally with n outcomes o accumulated.
func (t Tally) addN(o Outcome, n uint64) Tally {
	t.Total += n
	switch o {
	case OutcomeCE:
		t.CE += n
	case OutcomeDUE:
		t.DUE += n
	case OutcomeTMM:
		t.TMM += n
	case OutcomeSDC:
		t.SDC += n
	}
	return t
}

// ExhaustiveKBit tallies every k-bit error pattern (k in 1..4) over the
// target's physical bits, as the paper's exhaustive rows do, without
// enumerating them: how many weight-k patterns land on each syndrome is
// fixed by the code's weight structure (the MacWilliams identity). A
// Walsh–Hadamard transform of the column histogram gives n − 2·w(u) for
// every u, where w(u) counts the columns c with u·c odd. Replacing each
// entry with the Krawtchouk value K_k(w(u); n) and transforming again
// leaves 2^R times the number of weight-k patterns on each syndrome,
// which then count toward that syndrome's class. The tallies equal
// ExhaustiveKBitScalar's (the test battery and FuzzExhaustiveKBit hold
// them to it). A transform value can reach 2^R·C(n,k), so a target where
// that is 2^63 or more is refused rather than counted in a wrapped
// int64.
func ExhaustiveKBit(t Target, k int) (Tally, error) {
	if err := checkK(k); err != nil {
		return Tally{}, err
	}
	n, r := t.NPhys, uint(t.R)
	total, ok := binomial(uint64(n), k)
	if !ok || total>>(63-r) != 0 {
		return Tally{}, fmt.Errorf("reliability: %s: 2^%d·C(%d,%d) overflows the int64 transform", t.Name, r, n, k)
	}
	a := make([]int64, 1<<r)
	for _, c := range t.cols {
		a[c]++
	}
	walshHadamard(a)
	// kraw[w] = K_k(w; n). Its binomials cannot overflow: each is at
	// most C(n,k) < 2^63 when n ≥ 2k, and n < 8 otherwise.
	kraw := make([]int64, n+1)
	for w := range kraw {
		for j := 0; j <= k; j++ {
			x, _ := binomial(uint64(w), j)
			y, _ := binomial(uint64(n-w), k-j)
			kraw[w] += int64(1-2*(j&1)) * int64(x*y)
		}
	}
	for u, v := range a {
		a[u] = kraw[(int64(n)-v)/2]
	}
	walshHadamard(a)
	var byClass [4]uint64
	for s, v := range a {
		byClass[t.table.Class(uint64(s))] += uint64(v >> r)
	}
	var tally Tally
	for c, count := range byClass {
		tally = tally.addN(outcome(bitslice.Class(c), k), count)
	}
	return tally, nil
}

// checkK refuses a pattern weight the exhaustive tallies do not count.
func checkK(k int) error {
	if k < 1 || k > 4 {
		return fmt.Errorf("reliability: ExhaustiveKBit supports k in [1,4], got %d", k)
	}
	return nil
}

// walshHadamard transforms a, whose length is a power of two, in place:
// a[u] becomes the sum over x of (−1)^popcount(u&x)·a[x].
func walshHadamard(a []int64) {
	for h := 1; h < len(a); h <<= 1 {
		for i := 0; i < len(a); i += 2 * h {
			x, y := a[i:i+h], a[i+h:i+2*h]
			y = y[:len(x)] // lets the compiler drop y's bounds checks
			for j := range x {
				x[j], y[j] = x[j]+y[j], x[j]-y[j]
			}
		}
	}
}

// binomial returns C(n, k), and false if it does not fit in a uint64.
func binomial(n uint64, k int) (uint64, bool) {
	c := uint64(1)
	for i := uint64(0); i < uint64(k); i++ {
		if i >= n {
			return 0, true
		}
		hi, lo := bits.Mul64(c, n-i)
		if hi != 0 {
			return 0, false
		}
		c = lo / (i + 1) // exact: c·(n−i) = C(n, i+1)·(i+1)
	}
	return c, true
}

// ExhaustiveKBitScalar is the scalar reference enumeration, kept as the
// oracle the differential test battery holds ExhaustiveKBit to. It
// walks the k-subsets of the physical bits in lexicographic order.
func ExhaustiveKBitScalar(t Target, k int) (Tally, error) {
	if err := checkK(k); err != nil {
		return Tally{}, err
	}
	var tally Tally
	var walk func(from, left int, s uint64)
	walk = func(from, left int, s uint64) {
		if left == 0 {
			tally = tally.Add(t.classify(s, k))
			return
		}
		for i := from; i <= t.NPhys-left; i++ {
			walk(i+1, left-1, s^t.cols[i])
		}
	}
	walk(0, k, 0)
	return tally, nil
}

// RandomErrors injects `trials` uniformly random error patterns (each bit
// flipped with probability ½ — the paper's "random data corruption",
// equivalent to replacing the codeword with random bits). Per §3.6 /
// Table 2, this also models a simultaneous tag mismatch plus data error.
//
// Trials occupy campaign positions [0, trials); see RandomErrorsOffset
// for the batch-splitting contract.
func RandomErrors(t Target, trials int, seed int64) Tally {
	return RandomErrorsOffset(t, trials, seed, 0)
}

// RandomErrorsOffset runs `trials` random injections occupying campaign
// positions [offset, offset+trials). Position p lives in lane p mod 64
// of batch p/64, and batch b's patterns come from the SplitMix64 stream
// SeedForBatch(seed, b) regardless of which positions are live — so for
// any partition of [0, n) into contiguous chunks, the chunk tallies sum
// exactly to RandomErrors(t, n, seed). RandomErrorsParallel and the
// batch-splitting metamorphic tests are built on this contract.
func RandomErrorsOffset(t Target, trials int, seed int64, offset int) Tally {
	if trials <= 0 {
		return Tally{}
	}
	return randomErrorsRange(t.eng, t.eng.NewBatch(), seed, offset, offset+trials)
}

// randomErrorsRange classifies campaign positions [pos, end) on eng,
// reusing batch (one of eng's) for every 64-lane batch they touch.
func randomErrorsRange(eng *bitslice.Engine, batch *bitslice.Batch, seed int64, pos, end int) Tally {
	var counts bitslice.Counts
	for pos < end {
		bi := pos / 64
		lo := pos - bi*64
		hi := 64
		if batchEnd := (bi + 1) * 64; batchEnd > end {
			hi = end - bi*64
		}
		rng := bitslice.NewRand(bitslice.SeedForBatch(seed, uint64(bi)))
		batch.Random(rng)
		batch.SetLaneRange(lo, hi)
		counts.Add(eng.Classify(batch))
		pos = bi*64 + hi
	}
	return fromCounts(counts)
}

// RandomErrorsScalar is the scalar reference implementation, kept as
// the oracle for the differential suite and the baseline for the
// injections/sec benchmark. Its math/rand stream differs from the
// bitsliced SplitMix64 stream, so tallies are comparable only in
// distribution.
func RandomErrorsScalar(t Target, trials int, seed int64) Tally {
	rng := rand.New(rand.NewSource(seed))
	var tally Tally
	words := (t.NPhys + 63) / 64
	for trial := 0; trial < trials; trial++ {
		var s uint64
		weight := 0
		for w := 0; w < words; w++ {
			word := rng.Uint64()
			if w == words-1 && t.NPhys%64 != 0 {
				word &= 1<<uint(t.NPhys%64) - 1
			}
			weight += bits.OnesCount64(word)
			base := w * 64
			for word != 0 {
				b := bits.TrailingZeros64(word)
				s ^= t.cols[base+b]
				word &= word - 1
			}
		}
		tally = tally.Add(t.classify(s, weight))
	}
	return tally
}

// TagCorruptions verifies the alias-free guarantee by decoding every (or,
// above `limit` pairs, a sampled set of) lock/key mismatches with no data
// error. For a correct AFT-ECC construction the result is 100% TMM.
//
// The exhaustive path enumerates tag differences rather than pairs: by
// linearity the pair (lock, key) decodes as T·(lock⊕key), and every
// nonzero difference d arises from exactly 2^TS ordered pairs — so
// 2^TS−1 decodes with multiplicity 2^TS reproduce the pair enumeration
// bit-identically (TagCorruptionsScalar is the reference). The sampled
// path runs bitsliced over uniform nonzero tag differences, on a pool
// of GOMAXPROCS workers (runCampaigns); batch b draws only from
// SeedForBatch(seed, b), so the tally is the same for every worker
// count.
func TagCorruptions(c *core.Code, limit int, seed int64) Tally {
	space := uint64(1) << uint(c.TS())
	if total := space * (space - 1); limit <= 0 || uint64(limit) >= total {
		var tally Tally
		for d := uint64(1); d < space; d++ {
			tally = tally.addN(classifyTagOnly(c, c.TagSyndrome(d)), space)
		}
		return tally
	}
	if c.R() > bitslice.MaxR {
		return TagCorruptionsScalar(c, limit, seed)
	}
	camp := &campaign{tagEng: tagEngine(c), seed: seed, trials: limit}
	runCampaigns(runtime.GOMAXPROCS(0), camp)
	return camp.tally
}

// tagCorruptionsRange classifies the sampled tag differences at
// campaign positions [lo, hi), lo a multiple of 64: batch b holds
// positions [64b, 64b+64) and draws 64 nonzero differences from
// SeedForBatch(seed, b), of which the positions below hi are live.
// batch is one of eng's, reused for each.
func tagCorruptionsRange(eng *bitslice.Engine, batch *bitslice.Batch, lo, hi int, seed int64) Tally {
	var counts bitslice.Counts
	for pos := lo; pos < hi; pos += 64 {
		rng := bitslice.NewRand(bitslice.SeedForBatch(seed, uint64(pos/64)))
		batch.RandomNonzero(rng)
		batch.SetLaneRange(0, min(hi-pos, 64))
		counts.Add(eng.Classify(batch))
	}
	// All lanes carry a nonzero tag difference, so aliased or
	// miscorrecting (ClassZero) lanes classify as SDC via the engine's
	// table-derived zero class; OK and CE cannot occur by construction
	// (no empty lanes, no ClassCorrectable entries) but fold into SDC
	// defensively so a table change can never drop silent-corruption
	// events.
	return Tally{Total: counts.Total, DUE: counts.DUE, TMM: counts.TMM,
		SDC: counts.SDC + counts.OK + counts.CE}
}

// TagCorruptionsScalar is the scalar pair-enumeration reference for
// TagCorruptions (exhaustive below `limit`, math/rand-sampled above).
func TagCorruptionsScalar(c *core.Code, limit int, seed int64) Tally {
	var tally Tally
	space := uint64(1) << uint(c.TS())
	if total := space * (space - 1); limit <= 0 || uint64(limit) >= total {
		for lock := uint64(0); lock < space; lock++ {
			for key := uint64(0); key < space; key++ {
				if key == lock {
					continue
				}
				s := c.TagSyndrome(lock) ^ c.TagSyndrome(key)
				tally = tally.Add(classifyTagOnly(c, s))
			}
		}
		return tally
	}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < limit; trial++ {
		lock := rng.Uint64() & c.TagMask()
		key := rng.Uint64() & c.TagMask()
		for key == lock {
			key = rng.Uint64() & c.TagMask()
		}
		s := c.TagSyndrome(lock) ^ c.TagSyndrome(key)
		tally = tally.Add(classifyTagOnly(c, s))
	}
	return tally
}

// tagEngine builds a bitsliced classifier over the TS tag columns. It
// panics on an error, as newTarget does; TagCorruptions calls it only
// for R ≤ bitslice.MaxR.
func tagEngine(c *core.Code) *bitslice.Engine {
	spec := tagSpec(c)
	table, err := bitslice.NewTable(spec)
	if err != nil {
		panic(fmt.Sprintf("reliability: %s: tag engine: %v", c, err))
	}
	eng, err := bitslice.New(spec.Tag, table)
	if err != nil {
		panic(fmt.Sprintf("reliability: %s: tag engine: %v", c, err))
	}
	return eng
}

// tagSpec describes the tag engine's class table, matching
// classifyTagOnly: corrected tag aliases count as ClassZero — the
// engine's table-derived zero class puts every nonzero-difference lane
// of that class in SDC (the data-corrupting alias) — tag syndromes as
// TMM, the rest as DUE.
func tagSpec(c *core.Code) bitslice.TableSpec {
	return bitslice.TableSpec{
		R:         c.R(),
		Tag:       columnRange(c, 0, c.TS()),
		Corr:      columnRange(c, c.TS(), c.N()),
		CorrClass: bitslice.ClassZero,
	}
}

func classifyTagOnly(c *core.Code, s uint64) Outcome {
	res := c.DecodeSyndrome(s, 0)
	switch res.Status {
	case core.StatusTMM:
		return OutcomeTMM
	case core.StatusDUE:
		return OutcomeDUE
	case core.StatusCorrected:
		return OutcomeSDC // a tag mismatch flipping a data bit would be silent corruption
	default:
		return OutcomeSDC // undetected mismatch: the alias the construction forbids
	}
}

// RandomErrorsParallel runs a random-corruption campaign on a pool of
// `workers` goroutines (runCampaigns). Because RandomErrorsOffset
// seeds each 64-lane batch purely from (seed, batch index), the work
// items sum to exactly RandomErrors(t, trials, seed) for every worker
// count — the same seed gives the same tally on every machine, any
// parallelism. Use for paper-scale (1e8) trial counts.
func RandomErrorsParallel(t Target, trials, workers int, seed int64) Tally {
	c := &campaign{target: &t, seed: seed, trials: trials}
	runCampaigns(workers, c)
	return c.tally
}
