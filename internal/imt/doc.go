// Package imt implements Implicit Memory Tagging (Section 4 of the paper):
// the system layer that applies Alias-Free Tagged ECC to a GPU-style
// memory. It provides
//
//   - tagged 49-bit-VA pointers with the key tag in the unused upper bits,
//   - a sectored (32B-codeword) tagged memory with AFT-ECC encode on write
//     and decode+tag-check on read,
//   - fault reporting with fatal-TMM semantics plus the §4.3 debug mode,
//   - the driver-side diagnosis of §4.3: lock-tag extraction from the
//     syndrome's tag-error pattern and the optional precise TMM/DUE/BOTH
//     classification against a reference-tag allocation map (Equation 7).
package imt
