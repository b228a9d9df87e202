package gf2

// Transpose16 transposes four 16×16 bit matrices side by side, in
// place: matrix q occupies bits [16q, 16q+16) of the 16 words. The
// convention matches the rest of the package: bit j of a[i] is entry
// (i, j) of its matrix, so after the call bit 16q+j of a[i] holds what
// bit 16q+i of a[j] held before.
//
// The implementation is the classic recursive block swap (Hacker's
// Delight §7-3): four passes, each exchanging the off-diagonal
// sub-blocks of every 2j×2j tile with shift-and-mask delta swaps —
// 8 swaps per pass, no branches on data. The masks keep every swap
// inside its 16-bit field, so the four matrices never mix.
//
// The bitsliced injection engine uses this to pivot R ≤ 16 syndrome
// bit-planes (one word per H row, one bit per lane) into per-lane
// syndromes: afterwards lane l's syndrome is bits [16·(l/16),
// 16·(l/16)+16) of a[l%16].
func Transpose16(a *[16]uint64) {
	masks := [...]uint64{0x00FF00FF00FF00FF, 0x0F0F0F0F0F0F0F0F, 0x3333333333333333, 0x5555555555555555}
	for s, j := 0, 8; j != 0; s, j = s+1, j>>1 {
		m := masks[s]
		for k := 0; k < 16; k = (k + j + 1) &^ j {
			// Swap the high half of row k with the low half of row k+j:
			// entries (k, j..) ↔ (k+j, ..j) within the current tile.
			t := ((a[k] >> uint(j)) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
	}
}
