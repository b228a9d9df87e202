package gpusim

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func TestParseTagModeRoundTrip(t *testing.T) {
	// Every TagMode.String() spelling must parse back to its mode.
	for _, m := range []TagMode{ModeNone, ModeIMT, ModeECCSteal, ModeCarveOut, ModeBoundsTable} {
		got, carve, err := ParseTagMode(m.String())
		if err != nil {
			t.Fatalf("ParseTagMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("ParseTagMode(%q) = %v", m.String(), got)
		}
		if m == ModeCarveOut && carve.TagBits == 0 {
			t.Error("bare carve-out must carry a default geometry")
		}
	}
}

func TestParseTagModeShorthands(t *testing.T) {
	cases := map[string]struct {
		mode  TagMode
		carve CarveOut
	}{
		"carve-low":  {ModeCarveOut, CarveOutLow},
		"carve-high": {ModeCarveOut, CarveOutHigh},
		"carve-mte":  {ModeCarveOut, CarveOutARMMTE},
		"bounds":     {ModeBoundsTable, CarveOut{}},
	}
	for s, want := range cases {
		mode, carve, err := ParseTagMode(s)
		if err != nil {
			t.Fatalf("ParseTagMode(%q): %v", s, err)
		}
		if mode != want.mode || carve != want.carve {
			t.Errorf("ParseTagMode(%q) = %v/%+v, want %v/%+v", s, mode, carve, want.mode, want.carve)
		}
	}
	if _, _, err := ParseTagMode("no-such-mode"); err == nil {
		t.Error("unknown mode must error")
	}
}

func TestTagModeNamesAllParse(t *testing.T) {
	for _, name := range TagModeNames() {
		mode, carve, err := ParseTagMode(name)
		if err != nil {
			t.Errorf("advertised name %q does not parse: %v", name, err)
		}
		// A parsed carve-out config must pass validation end to end.
		cfg := DefaultConfig()
		cfg.Mode, cfg.Carve = mode, carve
		if err := cfg.Validate(); err != nil {
			t.Errorf("%q yields an invalid config: %v", name, err)
		}
	}
}

func streamTrace(n int) *FuncTrace {
	return &FuncTrace{N: n, Gen: func(i int, addrs []uint64) WarpOp {
		return WarpOp{Addrs: append(addrs, uint64(i)*32)}
	}}
}

func TestRunContextCancelled(t *testing.T) {
	cfg := DefaultConfig()
	sim, err := New(cfg, []Trace{streamTrace(200_000)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunCycleCap(t *testing.T) {
	sim, err := New(DefaultConfig(), []Trace{streamTrace(200_000)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1000); !errors.Is(err, ErrCycleCap) {
		t.Fatalf("err = %v, want ErrCycleCap", err)
	}
}

func TestRunMatchesRunContext(t *testing.T) {
	cfg := DefaultConfig()
	a, err := New(cfg, []Trace{streamTrace(5000)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, []Trace{streamTrace(5000)})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := a.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.RunContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa.WithoutHost(), sb.WithoutHost()) {
		t.Errorf("Run and RunContext diverge: %v vs %v", sa, sb)
	}
}

func TestCloneTraces(t *testing.T) {
	orig := &SliceTrace{Ops: []WarpOp{
		{Addrs: []uint64{0, 32}},
		{Store: true, Addrs: []uint64{64}, Compute: 3},
	}}
	cloned, err := CloneTraces([]Trace{orig, nil})
	if err != nil {
		t.Fatal(err)
	}
	if cloned[1] != nil {
		t.Error("nil (idle SM) entry must stay nil")
	}

	// Drain the original; the clone must still replay from the start.
	for {
		if _, ok := orig.Next(); !ok {
			break
		}
	}
	got := cloned[0]
	op, ok := got.Next()
	if !ok || len(op.Addrs) != 2 || op.Addrs[0] != 0 {
		t.Fatalf("clone op0 = %+v ok=%v", op, ok)
	}
	// Mutating the clone's addresses must not alias the original.
	op.Addrs[0] = 999
	if orig.Ops[0].Addrs[0] != 0 {
		t.Error("clone aliases the original's address slice")
	}
	op2, ok := got.Next()
	if !ok || !op2.Store || op2.Compute != 3 {
		t.Fatalf("clone op1 = %+v", op2)
	}

	// A started trace clones rewound.
	half := &SliceTrace{Ops: orig.Ops}
	half.Next()
	re, err := CloneTraces([]Trace{half})
	if err != nil {
		t.Fatal(err)
	}
	if op, ok := re[0].Next(); !ok || op.Addrs[0] != 0 {
		t.Fatalf("rewound clone starts at %+v", op)
	}

	// Generator-backed traces cannot be cloned safely.
	if _, err := CloneTraces([]Trace{streamTrace(4)}); err == nil {
		t.Error("FuncTrace clone must be rejected")
	}
}
