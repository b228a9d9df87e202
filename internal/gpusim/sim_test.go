package gpusim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func streamTraces(n, ops int, writeFrac float64, seed int64) []Trace {
	out := make([]Trace, n)
	for sm := 0; sm < n; sm++ {
		sm := sm
		rng := rand.New(rand.NewSource(seed + int64(sm)))
		out[sm] = &FuncTrace{N: ops, Gen: func(i int, addrs []uint64) WarpOp {
			base := (uint64(i)*uint64(n) + uint64(sm)) * 128
			op := WarpOp{Store: rng.Float64() < writeFrac, Addrs: addrs}
			for t := 0; t < 4; t++ {
				op.Addrs = append(op.Addrs, base+uint64(t)*32)
			}
			return op
		}}
	}
	return out
}

func randomTraces(n, ops int, footprint uint64, seed int64) []Trace {
	out := make([]Trace, n)
	for sm := 0; sm < n; sm++ {
		rng := rand.New(rand.NewSource(seed + int64(sm)))
		out[sm] = &FuncTrace{N: ops, Gen: func(i int, addrs []uint64) WarpOp {
			op := WarpOp{Addrs: addrs}
			for t := 0; t < 16; t++ {
				op.Addrs = append(op.Addrs, uint64(rng.Int63n(int64(footprint/4)))*4)
			}
			return op
		}}
	}
	return out
}

func run(t *testing.T, cfg Config, traces []Trace) Stats {
	t.Helper()
	sim, err := New(cfg, traces)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.SectorSize = 64
	if bad.Validate() == nil {
		t.Error("non-32B sector must be rejected")
	}
	bad = cfg
	bad.Mode = ModeCarveOut
	if bad.Validate() == nil {
		t.Error("carve-out mode without geometry must be rejected")
	}
	bad = cfg
	bad.NumSMs = 0
	if bad.Validate() == nil {
		t.Error("zero SMs must be rejected")
	}
}

func TestCarveOutGeometry(t *testing.T) {
	if CarveOutLow.CoverageBytes() != 1024 {
		t.Errorf("low coverage = %d, want 1024", CarveOutLow.CoverageBytes())
	}
	if CarveOutHigh.CoverageBytes() != 512 {
		t.Errorf("high coverage = %d, want 512", CarveOutHigh.CoverageBytes())
	}
	if CarveOutARMMTE.CoverageBytes() != 1024 {
		t.Errorf("MTE coverage = %d, want 1024", CarveOutARMMTE.CoverageBytes())
	}
	if s := CarveOutLow.StorageOverhead(); s != 0.03125 {
		t.Errorf("low storage overhead = %v, want 3.125%%", s)
	}
	if s := CarveOutHigh.StorageOverhead(); s != 0.0625 {
		t.Errorf("high storage overhead = %v, want 6.25%%", s)
	}
}

func TestStreamingBaselineSane(t *testing.T) {
	cfg := DefaultConfig()
	st := run(t, cfg, streamTraces(cfg.NumSMs, 2000, 0.3, 1))
	if st.WarpOps != uint64(cfg.NumSMs*2000) {
		t.Fatalf("ops = %d", st.WarpOps)
	}
	if st.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	// Streaming misses everywhere: DRAM data reads ≈ load sectors.
	if st.DRAMDataReads == 0 || st.DRAMTagReads != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// A fully memory-bound streaming workload should approach the DRAM
	// bandwidth roofline.
	if bw := st.BandwidthUtilization(cfg); bw < 0.5 {
		t.Errorf("streaming bandwidth utilization = %.2f, want > 0.5", bw)
	}
}

func TestIMTMatchesBaselineExactly(t *testing.T) {
	// The headline claim: IMT adds no traffic and no cycles.
	base := DefaultConfig()
	imt := base
	imt.Mode = ModeIMT
	steal := base
	steal.Mode = ModeECCSteal
	s0 := run(t, base, streamTraces(base.NumSMs, 1500, 0.3, 2))
	s1 := run(t, imt, streamTraces(base.NumSMs, 1500, 0.3, 2))
	s2 := run(t, steal, streamTraces(base.NumSMs, 1500, 0.3, 2))
	if s0.Cycles != s1.Cycles || s0.DRAMBytes() != s1.DRAMBytes() {
		t.Errorf("IMT diverged from baseline: %v vs %v", s1, s0)
	}
	if s0.Cycles != s2.Cycles {
		t.Errorf("ECC stealing diverged from baseline: %v vs %v", s2, s0)
	}
}

// TestConfigCanonical pins what Canonical drops: the traffic-free modes
// fold into none, and Carve/BoundsCk survive only in the mode that
// reads them.
func TestConfigCanonical(t *testing.T) {
	base := DefaultConfig()
	base.Carve = CarveOutHigh
	base.BoundsCk = 3
	for _, tc := range []struct {
		mode     TagMode
		wantMode TagMode
		carve    CarveOut
		boundsCk int
	}{
		{ModeNone, ModeNone, CarveOut{}, 0},
		{ModeIMT, ModeNone, CarveOut{}, 0},
		{ModeECCSteal, ModeNone, CarveOut{}, 0},
		{ModeCarveOut, ModeCarveOut, CarveOutHigh, 0},
		{ModeBoundsTable, ModeBoundsTable, CarveOut{}, 3},
	} {
		cfg := base
		cfg.Mode = tc.mode
		c := cfg.Canonical()
		if c.Mode != tc.wantMode || c.Carve != tc.carve || c.BoundsCk != tc.boundsCk {
			t.Errorf("%s: Canonical() = mode %s carve %+v boundsCk %d, want %s %+v %d",
				tc.mode, c.Mode, c.Carve, c.BoundsCk, tc.wantMode, tc.carve, tc.boundsCk)
		}
	}
}

func TestCarveOutAddsTagTraffic(t *testing.T) {
	base := DefaultConfig()
	carve := base
	carve.Mode = ModeCarveOut
	carve.Carve = CarveOutLow
	s0 := run(t, base, streamTraces(base.NumSMs, 3000, 0.3, 3))
	s1 := run(t, carve, streamTraces(base.NumSMs, 3000, 0.3, 3))
	if s1.DRAMTagReads == 0 {
		t.Fatal("carve-out generated no tag traffic")
	}
	// Streaming reuses each tag sector for 32 consecutive data sectors:
	// read bloat ≈ 1/32.
	bloat := s1.ReadBloat()
	if bloat < 0.02 || bloat > 0.06 {
		t.Errorf("streaming read bloat = %.4f, want ≈ 0.031", bloat)
	}
	if s1.Cycles <= s0.Cycles {
		t.Error("carve-out should slow a bandwidth-bound stream")
	}
	// Slowdown for a bandwidth-bound stream ≈ bloat.
	if sd := Slowdown(s0, s1); sd > 0.12 {
		t.Errorf("streaming slowdown = %.3f, unexpectedly high", sd)
	}
}

func TestCarveOutHighBeatsLowInTraffic(t *testing.T) {
	low := DefaultConfig()
	low.Mode = ModeCarveOut
	low.Carve = CarveOutLow
	high := low
	high.Carve = CarveOutHigh
	sl := run(t, low, streamTraces(low.NumSMs, 3000, 0.3, 4))
	sh := run(t, high, streamTraces(low.NumSMs, 3000, 0.3, 4))
	if sh.DRAMTagReads <= sl.DRAMTagReads {
		t.Error("high-tag-storage carve-out must fetch more tag sectors")
	}
}

func TestRandomFineGrainedHurtsMore(t *testing.T) {
	base := DefaultConfig()
	carve := base
	carve.Mode = ModeCarveOut
	carve.Carve = CarveOutLow
	footprint := uint64(64 << 20)
	s0 := run(t, base, randomTraces(base.NumSMs, 1200, footprint, 5))
	s1 := run(t, carve, randomTraces(base.NumSMs, 1200, footprint, 5))
	randomSlow := Slowdown(s0, s1)
	b0 := run(t, base, streamTraces(base.NumSMs, 3000, 0.3, 5))
	b1 := run(t, carve, streamTraces(base.NumSMs, 3000, 0.3, 5))
	streamSlow := Slowdown(b0, b1)
	if randomSlow <= streamSlow {
		t.Errorf("fine-grained random slowdown (%.3f) should exceed streaming (%.3f)", randomSlow, streamSlow)
	}
	if s1.ReadBloat() <= b1.ReadBloat() {
		t.Errorf("random bloat (%.3f) should exceed streaming bloat (%.3f)", s1.ReadBloat(), b1.ReadBloat())
	}
}

func TestBoundsTableSmallOverhead(t *testing.T) {
	base := DefaultConfig()
	bounds := base
	bounds.Mode = ModeBoundsTable
	s0 := run(t, base, streamTraces(base.NumSMs, 2000, 0.3, 6))
	s1 := run(t, bounds, streamTraces(base.NumSMs, 2000, 0.3, 6))
	sd := Slowdown(s0, s1)
	if sd < 0 || sd > 0.2 {
		t.Errorf("bounds-table slowdown = %.3f, want small and non-negative", sd)
	}
	if s1.DRAMTagReads != 0 {
		t.Error("bounds table must not generate tag traffic")
	}
}

func TestL1CapturesReuse(t *testing.T) {
	// A tiny working set must hit in L1 after warmup.
	cfg := DefaultConfig()
	traces := []Trace{&FuncTrace{N: 2000, Gen: func(i int, addrs []uint64) WarpOp {
		return WarpOp{Addrs: append(addrs, uint64(i%64)*32)}
	}}}
	st := run(t, cfg, traces)
	if st.L1HitRate() < 0.9 {
		t.Errorf("L1 hit rate = %.2f, want > 0.9", st.L1HitRate())
	}
}

func TestWritebackTraffic(t *testing.T) {
	// A store-heavy footprint larger than the L2 must cause writebacks.
	cfg := DefaultConfig()
	st := run(t, cfg, streamTraces(cfg.NumSMs, 4000, 1.0, 7))
	if st.DRAMWrites == 0 {
		t.Error("expected dirty writebacks")
	}
}

func TestCoalesce(t *testing.T) {
	out := coalesce([]uint64{0, 4, 31, 32, 64, 65, 33}, 32, nil)
	want := []uint64{0, 1, 2}
	if len(out) != len(want) {
		t.Fatalf("coalesce = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("coalesce = %v, want %v", out, want)
		}
	}
}

func TestTraceAdapters(t *testing.T) {
	st := &SliceTrace{Ops: []WarpOp{{Compute: 1}, {Compute: 2}}}
	if op, ok := st.Next(); !ok || op.Compute != 1 {
		t.Fatal("SliceTrace first op wrong")
	}
	if op, ok := st.Next(); !ok || op.Compute != 2 {
		t.Fatal("SliceTrace second op wrong")
	}
	if _, ok := st.Next(); ok {
		t.Fatal("SliceTrace should be exhausted")
	}
	ft := &FuncTrace{N: 1, Gen: func(i int, addrs []uint64) WarpOp { return WarpOp{Compute: i + 5, Addrs: addrs} }}
	if op, ok := ft.Next(); !ok || op.Compute != 5 {
		t.Fatal("FuncTrace wrong")
	}
	if _, ok := ft.Next(); ok {
		t.Fatal("FuncTrace should be exhausted")
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[TagMode]string{
		ModeNone: "none", ModeIMT: "imt", ModeECCSteal: "ecc-steal",
		ModeCarveOut: "carve-out", ModeBoundsTable: "bounds-table",
	} {
		if m.String() != want {
			t.Errorf("mode %d string = %q", int(m), m.String())
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{DRAMDataReads: 100, DRAMTagReads: 10, DRAMWrites: 5, L1Hits: 3, L1Misses: 1, L2Hits: 1, L2Misses: 3}
	if s.ReadBloat() != 0.1 {
		t.Error("ReadBloat wrong")
	}
	if s.DRAMBytes() != 32*115 {
		t.Error("DRAMBytes wrong")
	}
	if s.L1HitRate() != 0.75 || s.L2HitRate() != 0.25 {
		t.Error("hit rates wrong")
	}
	if (Stats{}).ReadBloat() != 0 || (Stats{}).L1HitRate() != 0 {
		t.Error("zero stats should not divide by zero")
	}
	if s.String() == "" {
		t.Error("empty String")
	}
	if Slowdown(Stats{}, s) != 0 {
		t.Error("Slowdown with zero baseline should be 0")
	}
	if sd := Slowdown(Stats{Cycles: 100}, Stats{Cycles: 110}); sd < 0.0999 || sd > 0.1001 {
		t.Error("Slowdown wrong")
	}
}

func TestIdleSMsAllowed(t *testing.T) {
	cfg := DefaultConfig()
	// Only one trace for a 4-SM machine.
	st := run(t, cfg, streamTraces(1, 500, 0.2, 8))
	if st.WarpOps != 500 {
		t.Fatalf("ops = %d, want 500", st.WarpOps)
	}
}

func TestAtomicsServicedAtL2(t *testing.T) {
	cfg := DefaultConfig()
	// A stream of atomics to a small set of counters: after warm-up they
	// hit in the L2 and never touch the L1.
	traces := []Trace{&FuncTrace{N: 2000, Gen: func(i int, addrs []uint64) WarpOp {
		return WarpOp{Atomic: true, Addrs: append(addrs, uint64(i%16)*32)}
	}}}
	st := run(t, cfg, traces)
	if st.Atomics != 2000 {
		t.Fatalf("atomics = %d", st.Atomics)
	}
	if st.L1Hits != 0 && st.L1Misses != 0 {
		t.Error("atomics must bypass the L1")
	}
	if st.L2Hits == 0 {
		t.Error("warm atomics should hit in the L2")
	}
	// RMW dirties the lines: no writebacks yet (they stay resident).
	if st.DRAMDataReads == 0 {
		t.Error("cold atomics must fetch from DRAM")
	}
}

func TestAtomicsNeedTagsUnderCarveOut(t *testing.T) {
	base := DefaultConfig()
	carve := base
	carve.Mode = ModeCarveOut
	carve.Carve = CarveOutLow
	mk := func() []Trace {
		rng := rand.New(rand.NewSource(9))
		return []Trace{&FuncTrace{N: 1500, Gen: func(i int, addrs []uint64) WarpOp {
			return WarpOp{Atomic: true, Addrs: append(addrs, uint64(rng.Int63n(1<<20))&^31)}
		}}}
	}
	s0 := run(t, base, mk())
	s1 := run(t, carve, mk())
	if s1.DRAMTagReads == 0 {
		t.Error("carve-out atomics must fetch lock tags (Fig 6a)")
	}
	if s1.Cycles <= s0.Cycles {
		t.Error("tag fetches should slow an atomic-heavy workload")
	}
}

func TestAtomicMixCompletes(t *testing.T) {
	// Mixed loads/stores/atomics over a shared footprint must drain
	// without deadlock under every mode.
	for _, mode := range []TagMode{ModeNone, ModeCarveOut, ModeBoundsTable} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		if mode == ModeCarveOut {
			cfg.Carve = CarveOutHigh
		}
		rng := rand.New(rand.NewSource(11))
		traces := []Trace{&FuncTrace{N: 1200, Gen: func(i int, addrs []uint64) WarpOp {
			op := WarpOp{Addrs: append(addrs, uint64(rng.Int63n(1<<18))&^31, uint64(rng.Int63n(1<<18))&^31)}
			switch i % 3 {
			case 0:
				op.Atomic = true
			case 1:
				op.Store = true
			}
			return op
		}}}
		st := run(t, cfg, traces)
		if st.WarpOps != 1200 || st.Atomics != 400 {
			t.Fatalf("mode %v: ops=%d atomics=%d", mode, st.WarpOps, st.Atomics)
		}
	}
}

func TestCoalescerSplitsDifferingKeyTags(t *testing.T) {
	// §4.2: two threads touching the SAME sector under DIFFERENT key tags
	// must not coalesce into one request.
	tagA := uint64(5) << TagShift
	tagB := uint64(9) << TagShift
	out := coalesce([]uint64{tagA | 0, tagA | 16, tagB | 0, tagB | 24}, 32, nil)
	if len(out) != 2 {
		t.Fatalf("coalesce produced %d requests, want 2 (split by tag)", len(out))
	}
	if out[0] == out[1] {
		t.Fatal("tagged sectors collided")
	}
	// Same tag still merges.
	out = coalesce([]uint64{tagA | 0, tagA | 31}, 32, nil)
	if len(out) != 1 {
		t.Fatalf("same-tag accesses did not merge: %d", len(out))
	}
}

func TestMixedTagWarpSimulates(t *testing.T) {
	cfg := DefaultConfig()
	traces := []Trace{&FuncTrace{N: 500, Gen: func(i int, addrs []uint64) WarpOp {
		base := uint64(i) * 128
		return WarpOp{Addrs: append(addrs,
			uint64(1)<<TagShift|base,
			uint64(2)<<TagShift|base, // same sector, different tag
			uint64(1)<<TagShift|base+64,
		)}
	}}}
	st := run(t, cfg, traces)
	if st.WarpOps != 500 {
		t.Fatalf("ops = %d", st.WarpOps)
	}
	// 3 requests per op (the same-sector pair split), not 2.
	if st.L1Hits+st.L1Misses != 1500 {
		t.Fatalf("sector requests = %d, want 1500", st.L1Hits+st.L1Misses)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mk := func() []Trace {
		out := make([]Trace, 3)
		for sm := range out {
			sm := sm
			r2 := rand.New(rand.NewSource(int64(sm)))
			out[sm] = &FuncTrace{N: 200 + sm*10, Gen: func(i int, addrs []uint64) WarpOp {
				op := WarpOp{Compute: r2.Intn(8), Addrs: addrs}
				switch i % 4 {
				case 0:
					op.Store = true
				case 1:
					op.Atomic = true
				}
				for a := 0; a < 1+r2.Intn(4); a++ {
					op.Addrs = append(op.Addrs, uint64(r2.Int63n(1<<30)))
				}
				return op
			}}
		}
		return out
	}
	_ = rng

	var buf bytes.Buffer
	if err := WriteTraces(&buf, mk()); err != nil {
		t.Fatal(err)
	}
	replayed := replayBlob(t, buf.Bytes())
	if len(replayed) != 3 {
		t.Fatalf("SMs = %d", len(replayed))
	}
	// The replayed stream is op-for-op identical to a fresh generation.
	fresh := mk()
	for sm := range fresh {
		for i := 0; ; i++ {
			a, okA := fresh[sm].Next()
			b, okB := replayed[sm].Next()
			if okA != okB {
				t.Fatalf("sm %d op %d: length mismatch", sm, i)
			}
			if !okA {
				break
			}
			if a.Store != b.Store || a.Atomic != b.Atomic || a.Compute != b.Compute || len(a.Addrs) != len(b.Addrs) {
				t.Fatalf("sm %d op %d: %+v vs %+v", sm, i, a, b)
			}
			for j := range a.Addrs {
				if a.Addrs[j] != b.Addrs[j] {
					t.Fatalf("sm %d op %d addr %d differs", sm, i, j)
				}
			}
		}
	}
}

func TestTraceFileSimEquivalence(t *testing.T) {
	// Simulating a recorded trace gives bit-identical stats to simulating
	// the generator directly.
	cfg := DefaultConfig()
	gen := func() []Trace { return streamTraces(cfg.NumSMs, 800, 0.3, 77) }
	var buf bytes.Buffer
	if err := WriteTraces(&buf, gen()); err != nil {
		t.Fatal(err)
	}
	replayed := replayBlob(t, buf.Bytes())
	s1 := run(t, cfg, gen())
	s2 := run(t, cfg, replayed)
	if !reflect.DeepEqual(s1.WithoutHost(), s2.WithoutHost()) {
		t.Fatalf("replayed stats differ:\n%v\n%v", s1, s2)
	}
}

func TestTraceFileRejectsGarbage(t *testing.T) {
	if _, err := IndexTraceStream(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := IndexTraceStream(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated stream: write a valid file, chop it.
	var buf bytes.Buffer
	if err := WriteTraces(&buf, streamTraces(2, 50, 0, 1)); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := IndexTraceStream(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestCarveOutShapeHoldsAcrossMachineScale(t *testing.T) {
	// Robustness of the DESIGN.md substitution: the carve-out slowdown
	// ordering (random-fine > streaming > none) must not be an artifact
	// of the quarter-scale default machine. Double the machine (SMs,
	// slices, L2) and check the ordering and rough magnitudes persist.
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	shapes := func(cfg Config) (stream, random float64) {
		carve := cfg
		carve.Mode = ModeCarveOut
		carve.Carve = CarveOutLow
		sb := run(t, cfg, streamTraces(cfg.NumSMs, 2500, 0.3, 31))
		sc := run(t, carve, streamTraces(cfg.NumSMs, 2500, 0.3, 31))
		rb := run(t, cfg, randomTraces(cfg.NumSMs, 1000, 96<<20, 31))
		rc := run(t, carve, randomTraces(cfg.NumSMs, 1000, 96<<20, 31))
		return Slowdown(sb, sc), Slowdown(rb, rc)
	}
	quarter := DefaultConfig()
	half := DefaultConfig()
	half.NumSMs *= 2
	half.NumSlices *= 2
	half.L2SliceBytes = quarter.L2SliceBytes // same per-slice, 2x total

	qs, qr := shapes(quarter)
	hs, hr := shapes(half)
	for _, c := range []struct {
		name           string
		stream, random float64
	}{{"quarter", qs, qr}, {"half", hs, hr}} {
		if !(c.random > c.stream) {
			t.Errorf("%s-scale: random (%.3f) should exceed streaming (%.3f)", c.name, c.random, c.stream)
		}
		if c.stream < 0.01 || c.stream > 0.10 {
			t.Errorf("%s-scale: streaming slowdown %.3f outside the bloat-bound regime", c.name, c.stream)
		}
	}
	// Magnitudes stay in the same ballpark across scales (within 2.5x).
	if ratio := hr / qr; ratio < 0.4 || ratio > 2.5 {
		t.Errorf("random slowdown scale ratio = %.2f, shapes not scale-stable", ratio)
	}
}
