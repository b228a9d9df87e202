// Command perfbench is the repository benchmark. It drives one seeded
// workload through the serving topology users run — one imtgw gateway
// in front of two imtd shards on loopback, built from the same checkout
// — or, for fault-campaign, through the reliability engine in process.
// It checks every output, prints every metric by name and unit, and
// ends with one JSON line:
//
//	{"correct":true,"attempted":252,"failed":0,"metrics":{"setup_s":{"value":0.41,"unit":"s"},…}}
//
// With -trace 0 the JSON carries the end-to-end metrics, measured with
// span recording off. With -trace 1 the workload runs again with spans
// recorded around every call into the program, followed by the layer
// ladder (ladder.go) and direct per-layer probes (probes.go); the JSON
// then carries the per-layer metrics and the spans are written to
// .perfbench/spans/.
//
// run.sh builds the binaries and passes -root and -bin; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// spec is the part of BENCHMARK.json the driver reads: the workloads
// and the metrics each kind of run must report, with their units.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

type metricDef struct{ Name, Unit string }

func loadSpec(root string) (spec, error) {
	var sp spec
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(blob, &sp); err != nil {
		return sp, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return sp, nil
}

// declares reports whether BENCHMARK.json lists the workload.
func (sp spec) declares(workload string) bool {
	for _, w := range sp.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

// workloads maps each -workload name to the function that runs it. Each sets
// setup_s, peak_rss_mb, ops_per_s, p50_ms and p95_ms (printed, but not
// an end-to-end metric: see README.md); what one "op" is differs per
// workload and is stated in README.md.
var workloads = map[string]func(*bench) error{
	"cold-sweep":     runColdSweep,
	"hot-sim":        runHotSim,
	"trace-ingest":   runTraceIngest,
	"fault-campaign": runFaultCampaign,
}

// maxConns bounds the benchmark's own concurrency: connections per
// host and worker goroutines never exceed the machine's CPU count.
var maxConns = runtime.NumCPU()

// bench is one run's state: its inputs, scratch directory, tallies and
// the metrics it has measured so far.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     string // checkout root
	bin      string // directory holding imtd and imtgw
	dir      string // this run's scratch directory (removed at exit)
	rng      *rand.Rand
	spans    *recorder   // nil unless traced
	want     []metricDef // the metrics this run must report

	attempted, failed int
	mu                sync.Mutex // guards mismatches and logged
	mismatches        []string
	logged            int
	metrics           []metricLine

	// fleet is the workload's imtgw→imtd topology (nil for
	// fault-campaign); the traced ladder reuses it for its upper rungs.
	fleet *fleet
	// deltas are the /v1/statsz differences across the workload's own
	// traffic; layer counts are read from them.
	deltas *statDeltas
	// tracePaths are the IMTTRC files the run recorded, for the decode
	// and trace-store probes.
	tracePaths []string
	// lag holds the open-loop generator's lateness samples (hot-sim).
	lag []float64
}

type metricLine struct {
	name  string
	value float64
	unit  string
	note  string
}

// set records a metric; note carries the base of a ratio or the sample
// count behind a percentile.
func (b *bench) set(name string, value float64, unit, note string) {
	b.metrics = append(b.metrics, metricLine{name, value, unit, note})
}

// op counts one attempted operation; a false ok counts it failed.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// mismatch records a failed output check. The operation it belongs to
// is counted failed by the caller through op; either makes the run
// incorrect.
// Safe for concurrent use.
func (b *bench) mismatch(format string, args ...any) {
	b.mu.Lock()
	b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	b.mu.Unlock()
	b.logFailure("check failed: "+format, args...)
}

// logFailure reports a failed operation on stderr, at most 20 times.
// Safe for concurrent use.
func (b *bench) logFailure(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.logged++; b.logged <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: cold-sweep, hot-sim, trace-ingest or fault-campaign")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "measurement length in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		root     = flag.String("root", ".", "checkout root, holding BENCHMARK.json (scratch files go under <root>/.perfbench)")
		bin      = flag.String("bin", "", "directory holding the imtd and imtgw binaries")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *bin == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1 and -bin\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	sp, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !sp.declares(*workload) {
		fmt.Fprintf(os.Stderr, "perfbench: BENCHMARK.json declares no workload %s\n", *workload)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b := &bench{
		ctx:      ctx,
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		root:     *root,
		bin:      *bin,
		rng:      rand.New(rand.NewSource(*seed)),
		want:     sp.EndToEnd,
	}
	if b.traced {
		b.spans = newRecorder()
		b.want = sp.PerLayer
	}
	code := 0
	if err := b.execute(run); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		code = 1
	}
	stop()
	os.Exit(code)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs the workload (and, when traced, the ladder and probes)
// in a fresh scratch directory and prints the report. It returns an
// error, and prints no result, when the run could not be carried out.
func (b *bench) execute(run func(*bench) error) error {
	runs := filepath.Join(b.root, ".perfbench", "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(runs, b.workload+"-")
	if err != nil {
		return err
	}
	b.dir = dir
	defer os.RemoveAll(dir)

	meter := newStealMeter()
	err = run(b)
	if share := meter.next(); !math.IsNaN(share) {
		// CPU the hypervisor gave to other guests while this run wanted
		// it; timings of runs with a high share read slow.
		fmt.Printf("host: steal was %.1f%% of CPU time during the workload\n", 100*share)
	}
	if err == nil && b.traced {
		err = b.traceLayers()
	}
	if b.fleet != nil {
		if stopErr := b.fleet.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("stopping the fleet: %w", stopErr)
		}
	}
	if err != nil {
		return err
	}
	if b.traced {
		path, err := b.spans.write(filepath.Join(b.root, ".perfbench", "spans"), fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", b.spans.len(), path)
	}
	return b.print()
}

// print writes every measured metric as "name value unit (note)", then
// the result JSON as the last line.
func (b *bench) print() error {
	errRate := 0.0
	if b.attempted > 0 {
		errRate = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%v\n", b.workload, b.seed, b.seconds, b.traced)
	fmt.Printf("  %-36s %14.6g %-6s (%d/%d)\n", "error_rate", errRate, "ratio", b.failed, b.attempted)
	for _, m := range b.metrics {
		note := ""
		if m.note != "" {
			note = "(" + m.note + ")"
		}
		fmt.Printf("  %-36s %14.6g %-6s %s\n", m.name, m.value, m.unit, note)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   b.failed == 0 && len(b.mismatches) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, def := range b.want {
		m, ok := b.lookup(def.Name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", def.Name)
		}
		if m.unit != def.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", def.Name, m.unit, def.Unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", def.Name, m.value)
		}
		out.Metrics[def.Name] = jsonMetric{m.value, m.unit}
	}
	if out.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (b *bench) lookup(name string) (metricLine, bool) {
	for _, m := range b.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metricLine{}, false
}
