package imt

import (
	"fmt"

	"repro/internal/tagtree"
)

// DiagnosisKind is the precise classification of a fatal error (Eq 7).
type DiagnosisKind int

const (
	// DiagnosisTMM: a pure tag mismatch (Ref ≠ Key and Ref = Lock).
	DiagnosisTMM DiagnosisKind = iota
	// DiagnosisDUE: a pure multi-bit data error (Ref = Key and Ref ≠ Lock).
	DiagnosisDUE
	// DiagnosisBoth: a simultaneous tag mismatch and data error (none of
	// the three tags agree).
	DiagnosisBoth
	// DiagnosisUnknown: no reference tag was registered for the faulting
	// address, so only the imprecise hardware attribution is available.
	DiagnosisUnknown
)

func (k DiagnosisKind) String() string {
	switch k {
	case DiagnosisTMM:
		return "TMM"
	case DiagnosisDUE:
		return "DUE"
	case DiagnosisBoth:
		return "BOTH"
	default:
		return "UNKNOWN"
	}
}

// Diagnosis is the driver's verdict on a fatal error (§4.3, Figure 7).
type Diagnosis struct {
	Kind    DiagnosisKind
	KeyTag  uint64
	LockTag uint64 // syndrome-extracted estimate; InvalidTag if none
	RefTag  uint64 // driver-side reference; InvalidTag if unregistered
}

// Driver models the GPU driver's error-diagnosis path. It optionally
// tracks a reference tag for every live allocation — the
// "storage-efficient tree structure" of §4.3, implemented as the balanced
// interval tree in internal/tagtree and queried only on the rare
// fatal-error path — and classifies faults per Equation 7.
type Driver struct {
	mem    *Memory
	allocs tagtree.Tree
}

// NewDriver attaches a driver to a tagged memory.
func NewDriver(mem *Memory) *Driver {
	return &Driver{mem: mem}
}

// RegisterAllocation records that [base, base+size) carries refTag.
// Overlapping registrations are rejected — allocations never overlap.
func (d *Driver) RegisterAllocation(base, size uint64, refTag uint64) error {
	if err := d.allocs.Insert(base, size, refTag); err != nil {
		return fmt.Errorf("imt: %w", err)
	}
	return nil
}

// UnregisterAllocation removes the record whose base matches exactly.
func (d *Driver) UnregisterAllocation(base uint64) error {
	if err := d.allocs.Remove(base); err != nil {
		return fmt.Errorf("imt: %w", err)
	}
	return nil
}

// UpdateTag changes the reference tag of the allocation containing addr
// (used when the allocator retags on free/reallocation).
func (d *Driver) UpdateTag(addr uint64, newTag uint64) error {
	if err := d.allocs.UpdateTag(addr, newTag); err != nil {
		return fmt.Errorf("imt: %w", err)
	}
	return nil
}

// ReferenceTag looks up the reference tag for addr; ok=false if no live
// allocation covers it.
func (d *Driver) ReferenceTag(addr uint64) (uint64, bool) {
	return d.allocs.Lookup(addr)
}

// TrackedAllocations returns the number of live reference-tag records.
func (d *Driver) TrackedAllocations() int { return d.allocs.Len() }

// Diagnose implements the §4.3 flow. The hardware supplies the faulting
// address, key tag and syndrome; the driver extracts the lock-tag estimate
// from the syndrome's tag-error pattern (the paper's syndrome lookup,
// which core.(*Code).IsTagSyndrome answers by elimination) and, when a
// reference tag is registered, applies Equation 7:
//
//	TMM:  Ref ≠ Key ∧ Ref = Lock
//	DUE:  Ref = Key ∧ Ref ≠ Lock
//	BOTH: Ref ≠ Key ∧ Ref ≠ Lock
//
// (Ref = Key ∧ Ref = Lock is impossible: the decoder would not have
// flagged a fatal error.)
func (d *Driver) Diagnose(f Fault) Diagnosis {
	invalid := d.mem.InvalidTag()
	lock := invalid
	if pattern, ok := d.mem.Code().IsTagSyndrome(f.Syndrome); ok {
		lock = (f.KeyTag ^ pattern) & d.mem.Code().TagMask()
	}
	diag := Diagnosis{KeyTag: f.KeyTag, LockTag: lock, RefTag: invalid}
	ref, ok := d.ReferenceTag(f.Addr)
	if !ok {
		diag.Kind = DiagnosisUnknown
		return diag
	}
	diag.RefTag = ref
	switch {
	case ref != f.KeyTag && ref == lock:
		diag.Kind = DiagnosisTMM
	case ref == f.KeyTag && ref != lock:
		diag.Kind = DiagnosisDUE
	default:
		diag.Kind = DiagnosisBoth
	}
	return diag
}
