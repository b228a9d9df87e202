package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/workload"
)

// runColdSweep streams one sweep through imtgw from one client (a
// closed loop) into empty caches. The grid is a seeded sample of
// catalog workloads, equal numbers from each of the seven access-
// pattern families, crossed with sweepModes; no two cells share work,
// so nearly all the time goes to gpusim and every cell ends in a
// runner cache write. An op is one cell.
func runColdSweep(b *bench) error {
	f, err := timedSetup(b, 21, func(dir string) (*fleet, error) {
		return startFleet(b.ctx, b, dir)
	}, (*fleet).stop)
	if err != nil {
		return err
	}
	b.fleet = f

	// 42 generated cells take about 3 s at roughly 140 ms a cell.
	sample := sampleFamilies(b.rng, perFamily(b.seconds, 3))
	names := make([]string, len(sample))
	for i, w := range sample {
		names[i] = w.Name
	}
	cl := newClient(f.gw.url)
	var (
		arrivals []arrival
		start    time.Time
		elapsed  time.Duration
	)
	err = b.measureDeltas(f, func() error {
		var err error
		arrivals, start, elapsed, err = b.timedSweep(cl, apitypes.SweepRequest{Workloads: names, Modes: sweepModes}, "cold-sweep.sweep")
		return err
	})
	if err != nil {
		return fmt.Errorf("cold sweep: %w", err)
	}
	want := gridKeys(names, sweepModes)
	served, ok := b.checkSweepCells(arrivals, want)
	b.countCells(want, ok)
	if err := b.checkAgainstRunner(sample, served); err != nil {
		return err
	}

	rss, err := f.peakRSSMB()
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", rss, "MB", "imtgw + 2 imtd VmHWM")
	grid := fmt.Sprintf("%d-cell grid (%d workloads x %d modes)", len(want), len(names), len(sweepModes))
	arrivals = succeeded(arrivals)
	b.set("ops_per_s", fleetRate(arrivals, start), "1/s", "fleet cells/s over a "+grid)
	b.set("sweep_cells_per_s", float64(len(arrivals))/elapsed.Seconds(), "1/s", "cells over the sweep's wall time, "+grid)
	times := cellTimesMs(arrivals, start)
	b.set("p50_ms", percentile(times, 50), "ms", fmt.Sprintf("per-cell service time, n=%d", len(times)))
	b.set("p95_ms", percentile(times, 95), "ms", fmt.Sprintf("per-cell service time, n=%d", len(times)))
	return nil
}

// runnerChecks is how many served cold-sweep cells are re-run in
// process: enough to catch a serving path that alters results, few
// enough to add under a second.
const runnerChecks = 3

// checkAgainstRunner re-runs a seeded sample of served cells through
// a fresh in-process runner engine and requires the canonical stats to
// be byte-identical. Each sampled cell is one more checked operation.
func (b *bench) checkAgainstRunner(sample []workload.Workload, served map[string]gpusim.Stats) error {
	byName := map[string]workload.Workload{}
	for _, w := range sample {
		byName[w.Name] = w
	}
	keys := sortedKeys(served)
	var (
		jobs  []runner.Job
		picks []string
	)
	for _, i := range b.rng.Perm(len(keys)) {
		if len(picks) == runnerChecks {
			break
		}
		name, mode, _ := strings.Cut(keys[i], "/")
		job, err := jobFor(byName[name], mode)
		if err != nil {
			return err
		}
		jobs = append(jobs, job)
		picks = append(picks, keys[i])
	}
	results, err := inProcess(b.ctx, jobs)
	if err != nil {
		return fmt.Errorf("in-process reference run: %w", err)
	}
	for i, k := range picks {
		ok := bytes.Equal(canonical(results[i].Stats), canonical(served[k]))
		if !ok {
			b.mismatch("served %s differs from an in-process runner run", k)
		}
		b.op(ok)
	}
	return nil
}
