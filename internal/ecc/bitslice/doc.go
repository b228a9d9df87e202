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
// lane per row. The R row words are then pivoted with gf2.Transpose16
// — four 16×16 bit transposes side by side, so lane l's syndrome lands
// in bits [16·(l/16), 16·(l/16)+16) of word l%16 — for a class-table
// lookup, and the per-lane outcomes (OK / CE / DUE / TMM / SDC) fall
// out of branch-free mask algebra over the class bits and two weight
// planes (weight ≥ 1, weight ≥ 2 — all the classifier distinguishes).
//
// # Class tables
//
// NewTable is the only writer of class tables. It takes a code's
// column sets — the tag span's generators, the correctable syndromes
// and their class — and fills the 2^R entries by block copies: the tag
// test is linear, so each 256-entry block is one of at most 257
// patterns, picked by the residual of its high bits after reduction by
// the tag span's pivots. A Table is immutable, so an engine shares its
// slice and trusts its entries without a validation pass.
//
// Two bounds apply. A table has R ≤ MaxTableR = 24 rows (16 MiB, the
// bound core.(*Code).TagSyndromeTable uses); the 16-row pivot bounds
// an engine at R ≤ MaxR = 16, which every code the repo injects into
// meets (the Figure 9 curve's R = 1..16, IMT-10/16, the tag engines'
// TS ≤ 15). New rejects a table wider than MaxR, and callers run their
// scalar paths on the table instead; internal/reliability's
// random-corruption fallback replays the engine's per-batch stream, so
// its tallies stay identical.
//
// Detect-only class tables (no correctable and no tag syndromes) skip
// the transpose and table lookup entirely: "syndrome zero or not" is R
// AND-NOT operations, which makes the R ≤ 8 points of the Figure 9
// curve nearly free. NewTable knows a table is detect-only from its
// column sets: no tag span and no nonzero correctable syndrome.
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
// FuzzBitslicedDecode).
package bitslice
