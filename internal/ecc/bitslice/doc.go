// Package bitslice is a bitsliced fault-injection engine for the GF(2)
// linear codes in internal/ecc and internal/core: it classifies 64
// error patterns per uint64 lane-step instead of decoding one codeword
// at a time. It runs the sampled campaigns; exhaustive k-bit tallies
// classify no pattern (internal/reliability counts them by transform
// and reads only the class table).
//
// # Bit-plane layout
//
// A Batch holds one uint64 plane per physical bit position; bit L of
// plane i means "lane L flips physical bit i". With that layout a
// syndrome row is the XOR-fold of the planes whose H column has the
// row's bit set, yielding 64 syndromes simultaneously — one bit per
// lane per row. Most lanes' classes follow from those row words alone:
// a lane with no syndrome bit is zero, one whose syndrome passes the
// tag span's parity checks is tag, any other is other. Only a lane
// whose syndrome weight is one of the table's weights (the popcounts
// of its correctable syndromes) is a candidate for a different class.
// When some lane is, the R row words are pivoted with gf2.Transpose16
// — four 16×16 bit transposes side by side, so lane l's syndrome lands
// in bits [16·(l/16), 16·(l/16)+16) of word l%16 — and just the
// candidates are looked up in the table's correctable set. The per-lane
// outcomes (OK / CE / DUE / TMM / SDC) fall out of branch-free mask
// algebra over the class bits and two weight planes (weight ≥ 1,
// weight ≥ 2 — all the classifier distinguishes).
//
// # Class tables
//
// NewTable is the only writer of class tables. It takes a code's
// column sets — the tag span's generators, the correctable syndromes
// and their class — and keeps what the structure cannot compute: the
// correctable set, as a 2^R-bit bitmap, and its class and weights. The
// rest is the tag span's checks, the parity masks that annihilate the
// span, read off its reduced echelon form. A syndrome's class is
// ClassZero when it is zero, the correctable class when it is in the
// set, ClassTag when it passes every check and ClassOther otherwise —
// the order core.(*Code).resolve tests. A Table is immutable, so an
// engine shares its bitmap without a validation pass.
//
// One bound applies: a table, and so an engine, has R ≤ MaxR = 16
// rows, the height of the 16-row pivot. Every code the repo injects
// into meets it (the Figure 9 curve's R = 1..16, IMT-10/16, the tag
// engines' TS ≤ 15); NewTable refuses a wider code.
//
// A detect-only class table (no correctable and no tag syndromes) has
// no weights, and its checks are the R single rows, so every nonzero
// syndrome classifies as other without a transpose or a lookup; that
// makes the R ≤ 8 points of the Figure 9 curve nearly free.
//
// # Determinism
//
// Rand is a SplitMix64 generator, and SeedForBatch derives an
// independent stream per 64-lane batch from (campaign seed, batch
// index). Campaigns built on it are therefore batch-splittable: any
// partition of the trial range produces tallies that sum to the whole,
// independent of worker count — the contract internal/reliability's
// parallel drivers and metamorphic tests rely on.
//
// Correctness is established differentially: the test battery checks
// every lane's outcome against scalar ecc.Code.Decode / core.Code
// decoding across all code families, exhaustively for small weights and
// randomized for mixed weights (see bitslice_test, differential_test,
// FuzzBitslicedDecode), and FuzzClassifyMasks holds the structural
// classes and the candidate filter to a class enumerated from the spec
// for every lane.
package bitslice
