package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/client"
	"repro/internal/workload"
)

// sweepModes are the tagging modes every sweep workload crosses its
// workloads with. "none" and "imt" must both be present: the
// no-overhead check compares them.
var sweepModes = []string{"none", "imt", "ecc-steal", "carve-low", "carve-high", "bounds-table"}

// familyNames are the seven access-pattern families the sweeps sample
// evenly: the six workload.Pattern values plus the tiny-footprint
// hpc-micro kernels, which are an order of magnitude cheaper than the
// rest and would otherwise be drawn by chance alone.
var familyNames = []string{"stream", "strided", "random-fine", "sparse", "gather", "stencil", "micro"}

func familyOf(w workload.Workload) string {
	if strings.HasPrefix(w.Name, "hpc-micro") {
		return "micro"
	}
	return w.Pattern.String()
}

// families groups the catalog by family, each in catalog order.
func families() map[string][]workload.Workload {
	out := map[string][]workload.Workload{}
	for _, w := range workload.Catalog() {
		out[familyOf(w)] = append(out[familyOf(w)], w)
	}
	return out
}

// sampleFamilies draws perFamily distinct workloads from every family,
// in family order, so every sample covers all seven access patterns in
// equal measure.
func sampleFamilies(rng *rand.Rand, perFamily int) []workload.Workload {
	fams := families()
	var out []workload.Workload
	for _, name := range familyNames {
		ws := fams[name]
		n := perFamily
		if n > len(ws) {
			n = len(ws)
		}
		for _, i := range rng.Perm(len(ws))[:n] {
			out = append(out, ws[i])
		}
	}
	return out
}

// perFamily sizes a sweep to fill about seconds of measurement on two
// single-worker shards, given how long one workload per family crossed
// with every mode (42 cells) takes there.
func perFamily(seconds, perRound float64) int {
	n := int(math.Round(seconds / perRound))
	if n < 1 {
		n = 1
	}
	if n > 15 {
		n = 15
	}
	return n
}

// canonical is the byte form results are compared in: the JSON of the
// simulated-machine statistics with host telemetry stripped.
func canonical(st gpusim.Stats) []byte {
	blob, err := json.Marshal(st.WithoutHost())
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding stats: %v", err)) // plain numeric struct
	}
	return blob
}

func cellKey(workload, mode string) string { return workload + "/" + mode }

// arrival is one streamed cell and when the client received it.
type arrival struct {
	cell apitypes.CellResult
	at   time.Time
}

// timedSweep streams one sweep, recording each cell's arrival time and
// a span per cell under the sweep's span.
func (b *bench) timedSweep(cl *client.Client, req apitypes.SweepRequest, spanName string) ([]arrival, time.Time, time.Duration, error) {
	var arrivals []arrival
	reqID := spanName // one sweep per run
	start := time.Now()
	root := b.spans.begin(spanName, reqID, 0)
	_, err := cl.Sweep(b.ctx, req, func(res apitypes.CellResult) error {
		now := time.Now()
		arrivals = append(arrivals, arrival{cell: res, at: now})
		return nil
	})
	elapsed := time.Since(start)
	b.spans.end(root)
	if b.spans != nil {
		for i, from := range cellStarts(arrivals, start) {
			a := arrivals[i]
			id := b.spans.beginAt(spanName+".cell", reqID+"/"+cellKey(a.cell.Workload, a.cell.Mode), root, from)
			b.spans.endAt(id, a.at)
		}
	}
	return arrivals, start, elapsed, err
}

// cellStarts is when each streamed cell began as the client saw it:
// at the previous arrival from the same shard, or the sweep's start for
// a shard's first cell. Shards run -j 1, so from then to the cell's
// arrival is the time that shard spent on it.
func cellStarts(arrivals []arrival, start time.Time) []time.Time {
	last := map[string]time.Time{}
	out := make([]time.Time, len(arrivals))
	for i, a := range arrivals {
		out[i] = start
		if t, ok := last[a.cell.Shard]; ok {
			out[i] = t
		}
		last[a.cell.Shard] = a.at
	}
	return out
}

// cellTimesMs is each cell's service time: from its start (cellStarts)
// to its arrival, queueing included.
func cellTimesMs(arrivals []arrival, start time.Time) []float64 {
	out := make([]float64, len(arrivals))
	for i, from := range cellStarts(arrivals, start) {
		out[i] = float64(arrivals[i].at.Sub(from)) / float64(time.Millisecond)
	}
	return out
}

// fleetRate is the cells per second the fleet completed during a sweep:
// all cells over the shards' summed busy time (each shard's time from
// the sweep's start to its last cell), times the number of shards.
// Unlike cells over the sweep's wall time it does not depend on how the
// hash ring split this seed's cells between the shards, which for trace
// cells happens in whole groups of one trace's modes
// (cluster.shard_cell_skew reports the split).
func fleetRate(arrivals []arrival, start time.Time) float64 {
	last := map[string]time.Time{}
	for _, a := range arrivals {
		last[a.cell.Shard] = a.at
	}
	var busy time.Duration
	for _, t := range last {
		busy += t.Sub(start)
	}
	return float64(len(arrivals)) * float64(len(last)) / busy.Seconds()
}

// succeeded keeps the arrivals that carry stats and no error. Rates and
// service times are computed over these alone, so a build whose cells
// fail fast cannot read faster; a failed cell's time is charged to the
// next successful cell of its shard.
func succeeded(arrivals []arrival) []arrival {
	var out []arrival
	for _, a := range arrivals {
		if a.cell.Error == "" && a.cell.Stats != nil {
			out = append(out, a)
		}
	}
	return out
}

// checkSweepCells judges every expected cell: it fails when the cell is
// missing, carries an error, or (for imt) does not take exactly the
// cycles of its none twin — the paper's no-overhead claim. It returns
// the served stats by cell key and the verdict of each expected cell;
// callers may fail further cells, then count each once with countCells.
func (b *bench) checkSweepCells(arrivals []arrival, want []string) (map[string]gpusim.Stats, map[string]bool) {
	got := map[string]gpusim.Stats{}
	for _, a := range arrivals {
		k := cellKey(a.cell.Workload, a.cell.Mode)
		if a.cell.Error != "" || a.cell.Stats == nil {
			b.logFailure("cell %s failed: %s", k, a.cell.Error)
			continue
		}
		got[k] = *a.cell.Stats
	}
	ok := map[string]bool{}
	for _, k := range want {
		st, arrived := got[k]
		if !arrived {
			continue
		}
		ok[k] = true
		if name, mode, _ := strings.Cut(k, "/"); mode == "imt" {
			if base, has := got[cellKey(name, "none")]; has && base.Cycles != st.Cycles {
				b.mismatch("%s took %d cycles, its none twin %d", k, st.Cycles, base.Cycles)
				ok[k] = false
			}
		}
	}
	return got, ok
}

// countCells counts every expected cell as one operation.
func (b *bench) countCells(want []string, ok map[string]bool) {
	for _, k := range want {
		b.op(ok[k])
	}
}

// gridKeys lists workloads × modes as cell keys.
func gridKeys(names, modes []string) []string {
	var out []string
	for _, n := range names {
		for _, m := range modes {
			out = append(out, cellKey(n, m))
		}
	}
	return out
}

// inProcess runs jobs through a fresh runner engine with no cache on
// the same machine configuration the shards use.
func inProcess(ctx context.Context, jobs []runner.Job) ([]runner.Result, error) {
	res, err := runner.New(gpusim.DefaultConfig(), runner.Options{Workers: maxConns}).Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	return res, runner.FirstError(res)
}

func jobFor(w workload.Workload, mode string) (runner.Job, error) {
	tm, carve, err := gpusim.ParseTagMode(mode)
	if err != nil {
		return runner.Job{}, err
	}
	return runner.Job{Workload: w, Mode: tm, Carve: carve}, nil
}

// shardSkew is max/mean of per-shard cell counts, with its base.
func shardSkew(counts []uint64) (float64, string) {
	var max, sum uint64
	parts := make([]string, len(counts))
	for i, c := range counts {
		sum += c
		if c > max {
			max = c
		}
		parts[i] = fmt.Sprint(c)
	}
	if sum == 0 {
		return 0, "no cells"
	}
	mean := float64(sum) / float64(len(counts))
	return float64(max) / mean, "cells per shard " + strings.Join(parts, "/")
}

// ratio formats a/b for a metric note and returns a/b (0 when b is 0).
func ratio(a, b uint64) (float64, string) {
	note := fmt.Sprintf("%d/%d", a, b)
	if b == 0 {
		return 0, note
	}
	return float64(a) / float64(b), note
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
