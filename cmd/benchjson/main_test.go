package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkAFTEncodeIMT16-8        	  417024	      2864 ns/op	  11.17 MB/s	       0 B/op	       0 allocs/op
BenchmarkFig8CarveOutSlowdown-8  	       1	1095849276 ns/op	         3.100 %hmean-low-hpc	         9.400 %max-low-hpc	 1024 B/op	      12 allocs/op
BenchmarkNoProcsSuffix 	     100	     12345 ns/op
--- BENCH: BenchmarkSomething-8
    bench_test.go:42: note line that must be ignored
PASS
ok  	repro	12.345s
`

func TestParseBench(t *testing.T) {
	rep, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.Pkg != "repro" || rep.CPU != "AMD EPYC 7B13" {
		t.Errorf("header = %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}

	enc := rep.Benchmarks[0]
	if enc.Name != "BenchmarkAFTEncodeIMT16" || enc.Procs != 8 || enc.Iterations != 417024 {
		t.Errorf("first record = %+v", enc)
	}
	if enc.Metrics["ns/op"] != 2864 || enc.Metrics["MB/s"] != 11.17 || enc.Metrics["allocs/op"] != 0 {
		t.Errorf("first metrics = %v", enc.Metrics)
	}

	// ReportMetric custom units survive with full precision.
	fig8 := rep.Benchmarks[1]
	if fig8.Metrics["%hmean-low-hpc"] != 3.1 || fig8.Metrics["%max-low-hpc"] != 9.4 {
		t.Errorf("custom metrics = %v", fig8.Metrics)
	}
	if fig8.Metrics["B/op"] != 1024 {
		t.Errorf("B/op = %v", fig8.Metrics["B/op"])
	}

	// A line without the -P suffix defaults to procs 1.
	if p := rep.Benchmarks[2]; p.Procs != 1 || p.Iterations != 100 {
		t.Errorf("no-suffix record = %+v", p)
	}
}

func TestParseBenchEmptyAndErrors(t *testing.T) {
	rep, err := parseBench(strings.NewReader("PASS\nok  \trepro\t0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("expected no benchmarks, got %d", len(rep.Benchmarks))
	}

	if _, err := parseBench(strings.NewReader("BenchmarkBad-8\t10\tnot-a-number ns/op\n")); err == nil {
		t.Error("bad value must be an error")
	}
	if _, err := parseBench(strings.NewReader("BenchmarkOdd-8\t10\t123 ns/op stray\n")); err == nil {
		t.Error("odd field count must be an error")
	}
}

func mkBench(name string, ns float64) Benchmark {
	return Benchmark{Name: name, Procs: 1, Iterations: 1, Metrics: map[string]float64{"ns/op": ns}}
}

func TestMinNsPerOp(t *testing.T) {
	min := minNsPerOp([]Benchmark{
		mkBench("BenchmarkA", 120), mkBench("BenchmarkA", 100), mkBench("BenchmarkA", 110),
		mkBench("BenchmarkB", 50),
		{Name: "BenchmarkNoNs", Metrics: map[string]float64{"MB/s": 1}},
	})
	if min["BenchmarkA"] != 100 || min["BenchmarkB"] != 50 {
		t.Errorf("min = %v", min)
	}
	if _, ok := min["BenchmarkNoNs"]; ok {
		t.Error("benchmark without ns/op must not be gated")
	}
}

func TestGateCheck(t *testing.T) {
	baseline := Report{Benchmarks: []Benchmark{
		mkBench("BenchmarkSteady", 100), mkBench("BenchmarkSteady", 105),
		mkBench("BenchmarkOther", 1000),
		mkBench("BenchmarkRemoved", 10),
	}}

	// Within tolerance (min 108 vs min 100 at 10%): no regression, and a
	// noisy second repetition must not trip the gate on its own.
	ok := Report{Benchmarks: []Benchmark{
		mkBench("BenchmarkSteady", 108), mkBench("BenchmarkSteady", 160),
		mkBench("BenchmarkOther", 900),
		mkBench("BenchmarkNew", 5), // only in current: ignored
	}}
	if regs := gateCheck(ok, baseline, 0.10); len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}

	// Beyond tolerance on every repetition: exactly that benchmark fails.
	bad := Report{Benchmarks: []Benchmark{
		mkBench("BenchmarkSteady", 125), mkBench("BenchmarkSteady", 130),
		mkBench("BenchmarkOther", 1000),
	}}
	regs := gateCheck(bad, baseline, 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkSteady") {
		t.Errorf("regressions = %v, want exactly BenchmarkSteady", regs)
	}

	// A looser tolerance admits the same run.
	if regs := gateCheck(bad, baseline, 0.30); len(regs) != 0 {
		t.Errorf("30%% tolerance should pass, got %v", regs)
	}
}

// TestGateCheckAllocs: allocs/op is gated on the min across
// repetitions with max(8, 5%) slack, independently of ns/op.
func TestGateCheckAllocs(t *testing.T) {
	withAllocs := func(name string, ns, allocs float64) Benchmark {
		b := mkBench(name, ns)
		b.Metrics["allocs/op"] = allocs
		return b
	}
	baseline := Report{Benchmarks: []Benchmark{
		withAllocs("BenchmarkSim", 100, 240), withAllocs("BenchmarkSim", 100, 241),
		withAllocs("BenchmarkTiny", 100, 1),
	}}

	// One more allocation per op (and a noisy repetition) passes.
	ok := Report{Benchmarks: []Benchmark{
		withAllocs("BenchmarkSim", 100, 241), withAllocs("BenchmarkSim", 100, 400),
		withAllocs("BenchmarkTiny", 100, 9), // +8 is within the floor of 8
	}}
	if regs := gateCheck(ok, baseline, 0.10); len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}

	// Doubled allocations fail, with ns/op unchanged.
	bad := Report{Benchmarks: []Benchmark{
		withAllocs("BenchmarkSim", 100, 480), withAllocs("BenchmarkSim", 100, 481),
		withAllocs("BenchmarkTiny", 100, 1),
	}}
	regs := gateCheck(bad, baseline, 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkSim") || !strings.Contains(regs[0], "allocs/op") {
		t.Errorf("regressions = %v, want exactly BenchmarkSim's allocs/op", regs)
	}
	// A looser ns/op tolerance does not loosen the allocs gate.
	if regs := gateCheck(bad, baseline, 10); len(regs) != 1 {
		t.Errorf("allocs/op regression passed under a loose ns/op tolerance: %v", regs)
	}
}

func TestPreviousRoundTrip(t *testing.T) {
	rep := Report{
		CreatedAt:  "2026-08-05T00:00:00Z",
		Command:    "go test -bench .",
		Benchmarks: []Benchmark{mkBench("BenchmarkA", 50)},
		Previous: &PreviousReport{
			CreatedAt:  "2026-08-01T00:00:00Z",
			Command:    "go test -bench . (seed)",
			Benchmarks: []Benchmark{mkBench("BenchmarkA", 100)},
		},
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Previous == nil || back.Previous.Benchmarks[0].Metrics["ns/op"] != 100 {
		t.Fatalf("previous trajectory lost: %+v", back.Previous)
	}
	// Reports without a trajectory must not grow a "previous" key.
	plain, _ := json.Marshal(Report{Benchmarks: rep.Benchmarks})
	if strings.Contains(string(plain), "previous") {
		t.Error("empty trajectory must be omitted from JSON")
	}
}

func TestReportJSONShape(t *testing.T) {
	rep, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Benchmarks) != len(rep.Benchmarks) {
		t.Errorf("round trip lost records: %d vs %d", len(back.Benchmarks), len(rep.Benchmarks))
	}
	if back.Benchmarks[1].Metrics["%hmean-low-hpc"] != 3.1 {
		t.Error("custom metric lost in JSON round trip")
	}
}
