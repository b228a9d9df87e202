// Package gf2 provides bit-packed linear algebra over the binary finite
// field GF(2), where addition is XOR and multiplication is AND.
//
// It is the foundation for all error-correcting-code construction in this
// repository. Two representations are provided:
//
//   - Matrix: a column-major matrix with at most 64 rows. Each column is a
//     single uint64 bit-vector, which makes syndrome computation (the XOR of
//     the columns selected by an error pattern) a tight loop. Parity-check
//     matrices have at most 62 check-bit rows (core.MaxTagSize's range),
//     so the 64-row limit is never a constraint in practice.
//   - BitVec: an arbitrary-length bit vector used for codewords and error
//     patterns (N can exceed 64; e.g. a 32B codeword with 16 check bits and
//     a 15-bit tag spans 287 bit positions).
package gf2
