// Package reliability implements the paper's fault-injection methodology
// (§5.1, §5.3): exhaustive tallies of k-bit error patterns and
// Monte-Carlo random-corruption campaigns against software ECC decoders,
// classifying each injection as corrected (CE), detected (DE — split into
// DUE and misattributed TMM), or silent data corruption (SDC). The
// exhaustive tallies are counted, not enumerated: two Walsh–Hadamard
// transforms over the 2^R syndromes give the number of weight-k
// patterns on each syndrome (ExhaustiveKBit), and the scalar
// enumeration stays as the oracle (ExhaustiveKBitScalar).
//
// It reproduces Figure 9 (SDC probability vs. redundancy) and Table 2
// (per-error-pattern behavior of AFT-ECC).
package reliability
