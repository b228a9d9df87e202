package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/reliability"
)

// BenchmarkNewCodeIMT16 times one paper-scale IMT-16 construction: the
// AFT-ECC code (256 data bits, 16 check bits, 15-bit tag) and its
// injection target, the set-up the fault-injection campaigns pay once.
func BenchmarkNewCodeIMT16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		code, err := core.NewCode(256, 16, 15, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		reliability.TargetAFT(code)
	}
}
