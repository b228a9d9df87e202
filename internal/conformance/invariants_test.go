package conformance

import (
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/runner"
)

// TestCheckInvariants runs the metamorphic pillar end to end.
func TestCheckInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic invariants simulate several full cells; skipped with -short")
	}
	for _, f := range CheckInvariants() {
		t.Error(f)
	}
}

// TestStatsDiffNamesField checks the shared comparison helper reports
// the divergent Stats field by name.
func TestStatsDiffNamesField(t *testing.T) {
	a := gpusim.Stats{Cycles: 100, L2Hits: 5}
	b := a
	b.L2Hits = 6
	d, err := statsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d == "" {
		t.Fatal("expected a diff")
	}
	if want := "L2Hits"; !strings.Contains(d, want) {
		t.Fatalf("diff %q does not name %s", d, want)
	}
	if d, err := statsDiff(a, a); err != nil || d != "" {
		t.Fatalf("identical stats diffed: %q, %v", d, err)
	}
}

// TestKeySoundnessCatchesSabotage proves the key-soundness invariant has
// teeth: a canonicaliser that wrongly merges carve-low into none (whose
// tag fetches it would then skip) must produce a finding.
func TestKeySoundnessCatchesSabotage(t *testing.T) {
	w, err := workloadByName("hpc-micro0")
	if err != nil {
		t.Fatal(err)
	}
	merged := func(cfg gpusim.Config, job runner.Job) (string, bool) {
		if job.Mode == gpusim.ModeCarveOut && job.Carve == gpusim.CarveOutLow {
			job.Mode, job.Carve = gpusim.ModeNone, gpusim.CarveOut{}
		}
		return runner.CacheKeyFor(cfg, job)
	}
	f := checkKeySoundness(w, merged)
	if f == nil {
		t.Fatal("a key merging carve-low into none passed: the invariant is vacuous")
	}
	if !strings.Contains(f.Detail, "none and carve-") {
		t.Errorf("finding %q does not name the merged cells", f.Detail)
	}
}
