package runner

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/obs"
)

func TestEngineEmitsSpansMetricsAndCells(t *testing.T) {
	hub := obs.NewHub()
	jobs := tinyJobs(3)
	eng := New(gpusim.DefaultConfig(), Options{Workers: 4, Obs: hub})
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}

	// One complete span per cell, on a named worker thread.
	var spans, counters int
	for _, e := range hub.Trace.Events() {
		switch e.Ph {
		case "X":
			spans++
			if e.Cat != "cell" || !strings.Contains(e.Name, "/") {
				t.Errorf("span %+v: want cat=cell and workload/mode name", e)
			}
			if e.Args["cycles"] == nil {
				t.Errorf("span %q missing cycles arg", e.Name)
			}
		case "C":
			counters++
		}
	}
	if spans != len(jobs) {
		t.Errorf("spans = %d, want one per cell (%d)", spans, len(jobs))
	}
	if counters != len(jobs) {
		t.Errorf("engine counter samples = %d, want %d", counters, len(jobs))
	}

	s := hub.Metrics.Snapshot()
	if s.Counters["runner_cells_total"] != uint64(len(jobs)) {
		t.Errorf("runner_cells_total = %d, want %d", s.Counters["runner_cells_total"], len(jobs))
	}
	if s.Counters["runner_sim_runs_total"] != uint64(len(jobs)) {
		t.Errorf("runner_sim_runs_total = %d, want %d", s.Counters["runner_sim_runs_total"], len(jobs))
	}
	if s.Histograms["runner_cell_seconds"].Count != uint64(len(jobs)) {
		t.Errorf("duration histogram count = %d, want %d", s.Histograms["runner_cell_seconds"].Count, len(jobs))
	}

	cells := hub.Cells()
	if len(cells) != len(jobs) {
		t.Fatalf("cell log has %d entries, want %d", len(cells), len(jobs))
	}
	for _, c := range cells {
		if c.Name == "" || c.Failed || c.Millis < 0 {
			t.Errorf("bad cell log entry: %+v", c)
		}
		if c.NsPerOp <= 0 || c.AllocsPerOp < 0 {
			t.Errorf("cell %s missing host telemetry: %+v", c.Name, c)
		}
	}
	if s.Histograms["runner_cell_ns_per_op"].Count != uint64(len(jobs)) {
		t.Errorf("ns/op histogram count = %d, want %d", s.Histograms["runner_cell_ns_per_op"].Count, len(jobs))
	}
	for _, r := range results {
		if r.Duration <= 0 {
			t.Errorf("cell %s has no duration", r.Job.Name())
		}
		if r.Stats.HostNsPerOp <= 0 {
			t.Errorf("cell %s has no host ns/op telemetry", r.Job.Name())
		}
	}
}

func TestFailedCellsReachProgressAndLog(t *testing.T) {
	hub := obs.NewHub()
	jobs := tinyJobs(1)
	// An invalid cell: carve-out mode without a geometry fails Validate.
	bad := Job{Workload: tinyWorkload(1, "broken"), Mode: gpusim.ModeCarveOut}
	jobs = append(jobs, bad)

	var last Progress
	eng := New(gpusim.DefaultConfig(), Options{
		Workers: 2, Obs: hub,
		Progress: func(p Progress) { last = p },
	})
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[len(results)-1].Err == nil {
		t.Fatal("invalid cell must fail")
	}
	if last.Failed != 1 || len(last.FailedNames) != 1 {
		t.Fatalf("progress = %+v, want one failed name", last)
	}
	if want := bad.Name(); last.FailedNames[0] != want {
		t.Errorf("failed name = %q, want %q", last.FailedNames[0], want)
	}
	sawFailed := false
	for _, c := range hub.Cells() {
		if c.Failed {
			sawFailed = true
		}
	}
	if !sawFailed {
		t.Error("cell log must mark the failed cell")
	}
	if got := hub.Metrics.Snapshot().Counters["runner_cell_failures_total"]; got != 1 {
		t.Errorf("runner_cell_failures_total = %d, want 1", got)
	}
}

func TestJobName(t *testing.T) {
	cases := []struct {
		job  Job
		want string
	}{
		{Job{Workload: tinyWorkload(1, "w"), Mode: gpusim.ModeNone}, "w/none"},
		{Job{Workload: tinyWorkload(1, "w"), Mode: gpusim.ModeCarveOut, Carve: gpusim.CarveOutLow}, "w/carve-out(ts8/tg32)"},
		{Job{Workload: tinyWorkload(1, "w"), Mode: gpusim.ModeCarveOut, Carve: gpusim.CarveOutHigh}, "w/carve-out(ts16/tg32)"},
		{Job{Key: "replay:x", Mode: gpusim.ModeNone}, "trace/none"},
	}
	for _, c := range cases {
		if got := c.job.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestProgressLineAndETA(t *testing.T) {
	p := Progress{Total: 10, Done: 5, Cached: 2, Failed: 1, CellsPerSec: 5, FailedNames: []string{"a/none"}}
	line := p.Line()
	for _, want := range []string{"5/10", "cached 2", "failed 1", "eta 1s", "failed: a/none"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	// Many failures truncate to the last three.
	p.FailedNames = []string{"a", "b", "c", "d", "e"}
	if line := p.Line(); !strings.Contains(line, "failed: …c,d,e") {
		t.Errorf("line %q must truncate failed names", line)
	}
	if eta := (Progress{Total: 10, Done: 10, CellsPerSec: 5}).ETA(); eta != 0 {
		t.Errorf("finished run ETA = %v, want 0", eta)
	}
	if eta := (Progress{Total: 10}).ETA(); eta != 0 {
		t.Errorf("unstarted run ETA = %v, want 0", eta)
	}
}

func TestTerminalProgressFinalNewline(t *testing.T) {
	var buf bytes.Buffer
	cb := TerminalProgress(&buf)
	cb(Progress{Total: 2, Done: 1, CellsPerSec: 1, FailedNames: []string{"long-name/mode"}, Failed: 1})
	cb(Progress{Total: 2, Done: 2, CellsPerSec: 1})
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("final progress output must end with a newline: %q", out)
	}
	// The shorter second line must pad over the longer first one.
	lines := strings.Split(out, "\r")
	if len(lines) < 3 {
		t.Fatalf("expected two redraws, got %q", out)
	}
	if !strings.HasSuffix(strings.TrimSuffix(lines[2], "\n"), " ") {
		t.Errorf("second redraw must pad out the previous longer line: %q", lines[2])
	}
}

// TestObsUnderRace drives the engine with telemetry from many workers;
// meaningful mainly under `go test -race`.
func TestObsUnderRace(t *testing.T) {
	hub := obs.NewHub()
	var lineBuf bytes.Buffer
	eng := New(gpusim.DefaultConfig(), Options{
		Workers:  8,
		Obs:      hub,
		Progress: TerminalProgress(&lineBuf),
	})
	jobs := tinyJobs(8)
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if hub.Trace.Len() == 0 || len(hub.Cells()) != len(jobs) {
		t.Fatal("telemetry missing after concurrent run")
	}
	var out bytes.Buffer
	if err := hub.Trace.Write(&out); err != nil {
		t.Fatal(err)
	}
}
