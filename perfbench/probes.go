package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// probeReps is the repetition count of the microsecond-scale probes
// (odd, so the median is a sample).
const probeReps = 101

// traceLayers runs after a traced workload: the layer ladder on the
// workload's fleet, then direct probes of each layer's public
// functions, then the counts read from the workload's /v1/statsz
// deltas. fault-campaign has no fleet, so it starts one here and its
// counts cover the ladder's traffic instead.
func (b *bench) traceLayers() error {
	if b.fleet == nil {
		f, err := startFleet(b.ctx, b, filepath.Join(b.dir, "ladder-fleet"))
		if err != nil {
			return err
		}
		b.fleet = f
		if err := b.measureDeltas(f, func() error { return b.runLadder(f) }); err != nil {
			return err
		}
	} else if err := b.runLadder(b.fleet); err != nil {
		return err
	}
	// The probes draw from their own stream so that every workload's
	// traced run probes the same cells for a given seed.
	rng := rand.New(rand.NewSource(b.seed ^ 0x5eed))
	if err := b.probeGpusim(rng); err != nil {
		return err
	}
	if err := b.probeTraceStore(); err != nil {
		return err
	}
	if err := b.probeBitslice(rng); err != nil {
		return err
	}
	b.setCounts()
	return nil
}

// probeGpusim simulates one seeded workload per family under "none"
// directly through gpusim.Sim.Run and reports host cost per warp op,
// allocations per cell and the simulated counts (identical for a
// speed-only change); it times trace generation alone by draining
// Workload.Traces; and it decodes the run's recorded traces with
// gpusim.TraceScanner.
func (b *bench) probeGpusim(rng *rand.Rand) error {
	cfg := gpusim.DefaultConfig()
	sample := sampleFamilies(rng, 1)
	var ns, allocs float64
	var ops, cycles uint64
	for _, w := range sample {
		span := b.spans.begin("probe.gpusim.Sim.Run", "probe/"+w.Name, 0)
		sim, err := gpusim.New(cfg, w.Traces(cfg.NumSMs))
		if err != nil {
			return err
		}
		st, err := sim.Run(0)
		b.spans.end(span)
		if err != nil {
			return err
		}
		ns += st.HostNsPerOp * float64(st.WarpOps)
		allocs += st.HostAllocsPerOp * float64(st.WarpOps)
		ops += st.WarpOps
		cycles += st.Cycles
	}
	note := fmt.Sprintf("%d cells, one per family, mode none", len(sample))
	b.set("gpusim.ns_per_warp_op", ns/float64(ops), "ns", note)
	b.set("gpusim.allocs_per_cell", allocs/float64(len(sample)), "count", note)
	b.set("gpusim.warp_ops", float64(ops), "count", note)
	b.set("gpusim.sim_cycles", float64(cycles), "count", note)

	var genOps int
	t0 := time.Now()
	for _, w := range sample {
		for _, tr := range w.Traces(cfg.NumSMs) {
			for {
				if _, ok := tr.Next(); !ok {
					break
				}
				genOps++
			}
		}
	}
	b.set("workload.gen_ns_per_op", float64(time.Since(t0).Nanoseconds())/float64(genOps), "ns",
		fmt.Sprintf("%d ops drained from Workload.Traces", genOps))

	if len(b.tracePaths) == 0 {
		// Workloads that upload nothing decode recordings of the probe set.
		for i, w := range sample {
			path := filepath.Join(b.dir, fmt.Sprintf("probe%d.trc", i))
			if _, err := recordTrace(w, cfg.NumSMs, path); err != nil {
				return err
			}
			b.tracePaths = append(b.tracePaths, path)
		}
	}
	var blobs [][]byte
	var total int
	for _, p := range b.tracePaths {
		blob, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		blobs = append(blobs, blob)
		total += len(blob)
	}
	buf := make([]gpusim.WarpOp, 256)
	t0 = time.Now()
	for _, blob := range blobs {
		sc, err := gpusim.NewTraceScanner(bytes.NewReader(blob))
		if err != nil {
			return err
		}
		for {
			_, more, err := sc.NextSM()
			if err != nil {
				return err
			}
			if !more {
				break
			}
			for {
				n, err := sc.ReadOps(buf)
				if err != nil {
					return err
				}
				if n == 0 {
					break
				}
			}
		}
		if _, err := sc.Finish(); err != nil {
			return err
		}
	}
	b.set("gpusim.decode_mb_per_s", float64(total)/1e6/time.Since(t0).Seconds(), "MB/s",
		fmt.Sprintf("%.1f MB in %d traces", float64(total)/1e6, len(blobs)))
	return nil
}

// probeTraceStore times tracestore.Store.Put over the recorded traces
// into a fresh store, OpenReplay+Close on one of them, and
// runner.Cache.Store of a cell result under fresh keys.
func (b *bench) probeTraceStore() error {
	st, err := tracestore.Open(tracestore.Options{Dir: filepath.Join(b.dir, "probe-store")})
	if err != nil {
		return err
	}
	var bytesPut int64
	var digest string
	t0 := time.Now()
	for _, p := range b.tracePaths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		info, _, err := st.Put(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("probe put %s: %w", p, err)
		}
		bytesPut += info.Bytes
		digest = info.Digest
	}
	b.set("tracestore.put_mb_per_s", float64(bytesPut)/1e6/time.Since(t0).Seconds(), "MB/s",
		fmt.Sprintf("%.1f MB in %d puts to a fresh store", float64(bytesPut)/1e6, len(b.tracePaths)))

	var opens []time.Duration
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		rep, err := st.OpenReplay(digest)
		if err != nil {
			return err
		}
		if err := rep.Close(); err != nil {
			return err
		}
		opens = append(opens, time.Since(t0))
	}
	b.set("tracestore.open_replay_us", us(medianDur(opens)), "us", fmt.Sprintf("median of %d", probeReps))
	s := st.Stats()
	fmt.Printf("probe trace store: %d blobs, %d bytes, %d puts, %d hits\n", s.Blobs, s.Bytes, s.Puts, s.PutHits)

	cache := runner.OpenCache(filepath.Join(b.dir, "probe-cache"))
	w := workload.Catalog()[0]
	sim, err := gpusim.New(gpusim.DefaultConfig(), w.Traces(gpusim.DefaultConfig().NumSMs))
	if err != nil {
		return err
	}
	result, err := sim.Run(0)
	if err != nil {
		return err
	}
	var stores []time.Duration
	for i := 0; i < probeReps; i++ {
		key, _ := runner.CacheKeyFor(gpusim.DefaultConfig(), runner.Job{Workload: w, MaxCycles: uint64(ladderCap + i)})
		t0 := time.Now()
		cache.Store(key, result)
		stores = append(stores, time.Since(t0))
	}
	b.set("runner.cache_store_us", us(medianDur(stores)), "us", fmt.Sprintf("median of %d stores of %s", probeReps, w.Name))
	return nil
}

// probeBitslice runs three fault-campaign rounds and reports each
// campaign's injection rate on its own.
func (b *bench) probeBitslice(rng *rand.Rand) error {
	c, err := newIMT16()
	if err != nil {
		return err
	}
	var curve, random, tag time.Duration
	var curveInj uint64
	const rounds = 3
	for i := 0; i < rounds; i++ {
		span := b.spans.begin("probe.bitslice.round", fmt.Sprintf("probe-round-%d", i), 0)
		r, err := b.runRound(c, rng.Int63())
		b.spans.end(span)
		if err != nil {
			return err
		}
		b.op(r.ok)
		curve += r.curve
		random += r.random
		tag += r.tag
		curveInj += r.curveInj
	}
	note := fmt.Sprintf("%d rounds on %d workers", rounds, maxConns)
	b.set("bitslice.curve_k64_inj_per_s", float64(curveInj)/curve.Seconds(), "1/s", note)
	b.set("bitslice.random_imt16_inj_per_s", rounds*randomTrials/random.Seconds(), "1/s", note)
	b.set("bitslice.tag_corruptions_inj_per_s", rounds*tagTrials/tag.Seconds(), "1/s", note)
	return nil
}

// setCounts records the per-layer counts from the /v1/statsz deltas of
// the workload's traffic, each ratio with its base.
func (b *bench) setCounts() {
	d := b.deltas
	simRuns := d.cells - d.cacheHits - d.coalesce
	b.set("runner.sim_runs", float64(simRuns), "count", "served cells neither cached nor coalesced")
	b.set("runner.cache_hits", float64(d.cacheHits), "count", "")
	v, note := ratio(d.cacheHits, d.cells)
	b.set("runner.cache_hit_ratio", v, "ratio", note)
	v, note = ratio(d.coalesce, d.cells)
	b.set("serve.coalesce_ratio", v, "ratio", note)
	b.set("serve.rejected", float64(d.rejected), "count", "")
	b.set("serve.timeouts", float64(d.timeouts), "count", "")
	v, note = shardSkew(d.shardCells)
	b.set("cluster.shard_cell_skew", v, "ratio", note)
	b.set("cluster.trace_pushes", float64(d.tracePushes), "count", "")
	b.set("cluster.rerouted", float64(d.rerouted), "count", "")
	v, note = ratio(d.putHits, d.puts)
	b.set("tracestore.put_hit_ratio", v, "ratio", note)
	if len(b.lag) > 0 {
		b.set("loadgen.lag_ms", percentile(b.lag, 99), "ms", fmt.Sprintf("p99 of %d dispatches", len(b.lag)))
	} else {
		b.set("loadgen.lag_ms", 0, "ms", "closed loop: no schedule to fall behind")
	}
}
