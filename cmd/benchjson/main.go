// Command benchjson runs the repository's benchmark suite and writes
// the results as machine-readable JSON (default BENCH_results.json), so
// CI and notebooks can track the headline numbers each benchmark
// surfaces via b.ReportMetric without scraping `go test -bench` text.
//
// Usage:
//
//	benchjson [-out BENCH_results.json] [-bench regexp] [-benchtime 1x] [-count 1]
//	          [-pkg "./pkg1 ./pkg2"] [-prev old.json] [-gate BENCH_results.json]
//	          [-gate-tolerance 0.10]
//
// The tool shells out to `go test -run ^$ -bench ... -benchmem`, streams
// the raw output to stderr as it arrives, then parses every benchmark
// line — standard units (ns/op, B/op, allocs/op, MB/s) and the custom
// ReportMetric units alike — into one record per (benchmark, run).
//
// -prev embeds an earlier report's benchmarks under "previous", so a
// single BENCH_results.json carries a before/after trajectory (the
// optimization PRs use this to keep the pre-optimization numbers
// alongside the current ones).
//
// -gate reads a committed report before benchmarking and fails (exit 1,
// output file untouched) if any benchmark present in both runs regressed
// its ns/op by more than -gate-tolerance (fractional; default 0.10).
// Both sides compare their minimum ns/op across -count repetitions, so
// scheduler noise must persist across every repetition to trip the gate.
// The same run also fails when a benchmark's minimum allocs/op exceeds
// the baseline's by more than max(8, 5%): allocation counts are close
// to deterministic, so this catches a new per-op allocation that host
// noise would hide in ns/op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one benchmark result line. Metrics maps unit → value for
// every "value unit" pair after the iteration count: ns/op, B/op,
// allocs/op, MB/s and any custom b.ReportMetric unit.
type Benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs"` // GOMAXPROCS suffix, 1 if absent
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the BENCH_results.json document.
type Report struct {
	CreatedAt  string      `json:"created_at"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Command    string      `json:"command"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Previous carries the benchmark records of an earlier report
	// (-prev), preserving a before/after trajectory in one file.
	Previous *PreviousReport `json:"previous,omitempty"`
}

// PreviousReport is the embedded earlier run: enough provenance to know
// what the numbers meant, without recursively nesting trajectories.
type PreviousReport struct {
	CreatedAt  string      `json:"created_at,omitempty"`
	Command    string      `json:"command,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches a benchmark result: name, optional -P procs suffix,
// iteration count, then the measurement fields.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-(\d+))?\s+(\d+)\s+(.+)$`)

// parseBench reads `go test -bench` output and returns the structured
// report (metadata lines like "goos:"/"cpu:" fill the header fields).
func parseBench(r io.Reader) (Report, error) {
	rep := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1], Procs: 1, Metrics: map[string]float64{}}
		if m[2] != "" {
			b.Procs, _ = strconv.Atoi(m[2])
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return rep, fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		b.Iterations = iters
		// The tail is alternating "value unit" pairs.
		fields := strings.Fields(m[4])
		if len(fields)%2 != 0 {
			return rep, fmt.Errorf("odd measurement fields in %q", line)
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return rep, fmt.Errorf("bad value %q in %q: %w", fields[i], line, err)
			}
			b.Metrics[fields[i+1]] = v
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, sc.Err()
}

// minMetric folds a report's records into benchmark name → minimum
// value of unit across repetitions. The minimum is the least
// noise-contaminated estimate of a deterministic benchmark's cost, and
// using it on both sides means a -count N gate only trips when the
// slowdown survives every repetition.
func minMetric(benchmarks []Benchmark, unit string) map[string]float64 {
	min := map[string]float64{}
	for _, b := range benchmarks {
		v, ok := b.Metrics[unit]
		if !ok {
			continue
		}
		if cur, seen := min[b.Name]; !seen || v < cur {
			min[b.Name] = v
		}
	}
	return min
}

func minNsPerOp(benchmarks []Benchmark) map[string]float64 {
	return minMetric(benchmarks, "ns/op")
}

// gateCheck compares the fresh run against the committed baseline and
// returns one message per benchmark whose ns/op regressed beyond the
// tolerance, and one per benchmark whose allocs/op grew by more than
// max(8, 5%). Benchmarks present in only one report are ignored
// (renames and new benchmarks are not regressions).
func gateCheck(current, baseline Report, tolerance float64) []string {
	var regressions []string
	for _, unit := range []string{"ns/op", "allocs/op"} {
		base := minMetric(baseline.Benchmarks, unit)
		cur := minMetric(current.Benchmarks, unit)
		var names []string
		for name := range cur {
			if _, ok := base[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			b, c := base[name], cur[name]
			switch {
			case unit == "ns/op" && b > 0 && c > b*(1+tolerance):
				regressions = append(regressions,
					fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.1f%%, tolerance %.0f%%)",
						name, c, b, (c/b-1)*100, tolerance*100))
			case unit == "allocs/op" && c > b+max(8, 0.05*b):
				regressions = append(regressions,
					fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (+%.0f, allowed +%.0f)",
						name, c, b, c-b, max(8, 0.05*b)))
			}
		}
	}
	return regressions
}

func readReport(path string) (Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func main() {
	var (
		out       = flag.String("out", "BENCH_results.json", "output JSON file")
		bench     = flag.String("bench", ".", "benchmark name regexp (go test -bench)")
		benchtime = flag.String("benchtime", "1x", "per-benchmark time or iteration budget (go test -benchtime)")
		count     = flag.Int("count", 1, "runs per benchmark (go test -count)")
		pkg       = flag.String("pkg", ".", "package pattern(s) to benchmark, space-separated")
		prev      = flag.String("prev", "", "earlier report to embed under \"previous\"")
		gate      = flag.String("gate", "", "baseline report; fail on ns/op regressions beyond -gate-tolerance")
		gateTol   = flag.Float64("gate-tolerance", 0.10, "allowed fractional ns/op regression before -gate fails")
	)
	flag.Parse()

	// Load the comparison inputs up front so a bad path fails before the
	// (slow) benchmark run, and so -gate reads the committed baseline
	// before -out can overwrite it.
	var prevRep, gateRep Report
	if *prev != "" {
		var err error
		if prevRep, err = readReport(*prev); err != nil {
			fatal(err)
		}
	}
	if *gate != "" {
		var err error
		if gateRep, err = readReport(*gate); err != nil {
			fatal(err)
		}
	}

	pkgs := strings.Fields(*pkg)
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	args := append([]string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count)}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr

	// Tee the bench output so progress is visible while the parse sees
	// the complete stream.
	var buf strings.Builder
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
	if err := cmd.Start(); err != nil {
		fatal(err)
	}
	if _, err := io.Copy(io.MultiWriter(&buf, os.Stderr), stdout); err != nil {
		fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		fatal(fmt.Errorf("go test -bench failed: %w", err))
	}

	rep, err := parseBench(strings.NewReader(buf.String()))
	if err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines in go test output (pattern %q)", *bench))
	}
	rep.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	rep.Command = "go " + strings.Join(args, " ")
	if len(pkgs) > 1 {
		// Multi-package runs emit one "pkg:" header per package; record
		// the full pattern list instead of whichever came last.
		rep.Pkg = strings.Join(pkgs, " ")
	}
	if *prev != "" {
		rep.Previous = &PreviousReport{
			CreatedAt:  prevRep.CreatedAt,
			Command:    prevRep.Command,
			CPU:        prevRep.CPU,
			Benchmarks: prevRep.Benchmarks,
		}
	}

	if *gate != "" {
		if regressions := gateCheck(rep, gateRep, *gateTol); len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "benchjson: REGRESSION", r)
			}
			// Leave -out untouched: the committed baseline stays intact
			// for inspection, and the gate's failure is the signal.
			fatal(fmt.Errorf("%d regression(s) vs %s (ns/op tolerance %.0f%%, allocs/op max(8, 5%%))",
				len(regressions), *gate, *gateTol*100))
		}
		fmt.Fprintf(os.Stderr, "benchjson: gate ok (%d benchmarks within %.0f%% ns/op and max(8, 5%%) allocs/op of %s)\n",
			len(minNsPerOp(rep.Benchmarks)), *gateTol*100, *gate)
		// A gated run refreshes the trajectory: keep the baseline's own
		// "previous" records unless -prev supplied newer ones.
		if rep.Previous == nil {
			rep.Previous = gateRep.Previous
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmark records to %s\n", len(rep.Benchmarks), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
