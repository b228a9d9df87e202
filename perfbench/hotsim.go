package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/workload"
)

// hot-sim traffic shape. The lower rate is well inside the fleet's
// capacity and yields the latency percentiles; the higher one is near
// the highest rate this topology carried within latencyLimit without a
// growing backlog on a 2-vCPU machine, and yields goodput. The run
// alternates the two rates in short windows, so neither always runs
// first.
const (
	lowRate      = 250.0 // requests per second
	highRate     = 450.0
	latencyLimit = 20 * time.Millisecond
	hotWindows   = 32    // alternating low, high, low, …
	hotCells     = 24    // cells warmed into the shard caches in set-up
	zipfS        = 1.1   // Zipf exponent over the warmed cells
	burstShare   = 0.006 // share of high-rate arrivals that start a burst of a never-seen cell
	burstSize    = 3     // duplicate requests per burst, due at the same instant
	settle       = 500 * time.Millisecond
)

// runHotSim is the open loop: POST /v1/sim at two fixed Poisson rates,
// drawn Zipf from cells warmed into the shard caches during set-up, so
// serve, the runner cache lookup and the cluster hop do the work and
// gpusim almost none. A small seeded share of the high-rate arrivals
// are bursts of duplicate requests for never-seen cells, which exercise
// singleflight coalescing and admission. An op is one request.
func runHotSim(b *bench) error {
	fams := families()
	var hot []workload.Workload
	for _, name := range familyNames {
		if name == "micro" {
			continue // reserved for the never-seen bursts below
		}
		ws := fams[name]
		for _, i := range b.rng.Perm(len(ws))[:hotCells/(len(familyNames)-1)] {
			hot = append(hot, ws[i])
		}
	}
	var refs []apitypes.CellRef
	for _, w := range hot {
		refs = append(refs, apitypes.CellRef{Workload: w.Name, Mode: sweepModes[b.rng.Intn(len(sweepModes))]})
	}
	// Never-seen cells: the cheap hpc-micro kernels under every distinct
	// tagging mode, in seeded order, none of them warmed.
	var fresh []apitypes.CellRef
	freshModes := append(append([]string(nil), sweepModes...), "carve-mte")
	for _, w := range fams["micro"] {
		for _, m := range freshModes {
			fresh = append(fresh, apitypes.CellRef{Workload: w.Name, Mode: m})
		}
	}
	b.rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })

	type warmed struct {
		f   *fleet
		ref map[string][]byte
	}
	w, err := timedSetup(b, 5, func(dir string) (warmed, error) {
		f, err := startFleet(b.ctx, b, dir)
		if err != nil {
			return warmed{}, err
		}
		ref := map[string][]byte{}
		_, err = newClient(f.gw.url).Sweep(b.ctx, apitypes.SweepRequest{Cells: refs}, func(res apitypes.CellResult) error {
			if res.Error != "" || res.Stats == nil {
				return fmt.Errorf("warming %s/%s: %s", res.Workload, res.Mode, res.Error)
			}
			ref[cellKey(res.Workload, res.Mode)] = canonical(*res.Stats)
			return nil
		})
		if err == nil && len(ref) != len(refs) {
			err = fmt.Errorf("warming returned %d of %d cells", len(ref), len(refs))
		}
		if err != nil {
			return warmed{}, errors.Join(err, f.stop())
		}
		return warmed{f, ref}, nil
	}, func(w warmed) error { return w.f.stop() })
	if err != nil {
		return err
	}
	b.fleet = w.f

	// The schedule: Poisson arrivals in hotWindows equal windows that
	// alternate between the two rates.
	win := time.Duration(b.seconds / hotWindows * float64(time.Second))
	type item struct {
		ref    apitypes.CellRef
		window int
		fresh  bool
	}
	var (
		items []item
		calls []call
	)
	zipf := rand.NewZipf(b.rng, zipfS, 1, uint64(len(refs)-1))
	for k := 0; k < hotWindows; k++ {
		rate := lowRate
		if k%2 == 1 {
			rate = highRate
		}
		for _, due := range poissonArrivals(b.rng, rate, time.Duration(k)*win, win) {
			// Bursts ride only the high-rate windows: they test
			// coalescing and admission under load, and keep the
			// low-rate percentiles a measure of the cached path.
			if rate == highRate && b.rng.Float64() < burstShare && len(fresh) > 0 {
				ref := fresh[0]
				fresh = fresh[1:]
				for j := 0; j < burstSize; j++ {
					calls = append(calls, call{due: due, item: len(items)})
					items = append(items, item{ref, k, true})
				}
				continue
			}
			calls = append(calls, call{due: due, item: len(items)})
			items = append(items, item{refs[zipf.Uint64()], k, false})
		}
	}

	cl := newClient(w.f.gw.url)
	var (
		mu       sync.Mutex
		freshOut = map[string]map[int][]byte{} // cell → item → stats
	)
	// send performs one request and checks a warmed cell's result
	// against the one warmed into the cache; it returns the result.
	send := func(it item, reqID string) ([]byte, bool) {
		span := b.spans.begin("hot-sim.sim", reqID, 0)
		res, err := cl.Sim(b.ctx, apitypes.SimRequest{Workload: it.ref.Workload, Mode: it.ref.Mode})
		b.spans.end(span)
		if err != nil {
			b.logFailure("sim %s/%s: %v", it.ref.Workload, it.ref.Mode, err)
			return nil, false
		}
		if res.Stats == nil {
			b.logFailure("sim %s/%s: no stats: %s", it.ref.Workload, it.ref.Mode, res.Error)
			return nil, false
		}
		got := canonical(*res.Stats)
		if k := cellKey(it.ref.Workload, it.ref.Mode); !it.fresh && !bytes.Equal(got, w.ref[k]) {
			b.mismatch("sim %s differs from the result warmed into the cache", k)
			return nil, false
		}
		return got, true
	}

	// Settle: unmeasured low-rate traffic over the warmed cells, so the
	// first window does not pay for connection set-up and cold page
	// cache.
	var warm []call
	for i, due := range poissonArrivals(b.rng, lowRate, 0, settle) {
		warm = append(warm, call{due: due, item: i})
	}
	for _, r := range openLoop(time.Now(), warm, maxConns, func(c call) bool {
		_, ok := send(item{ref: refs[c.item%len(refs)]}, fmt.Sprintf("settle-%d", c.item))
		return ok
	}) {
		if !r.ok {
			return fmt.Errorf("hot-sim: settle traffic failed")
		}
	}

	var (
		results []callResult
		steal   []float64
	)
	err = b.measureDeltas(w.f, func() error {
		start := time.Now()
		var sampled sync.WaitGroup
		sampled.Add(1)
		go func() {
			defer sampled.Done()
			steal = stealPerWindow(start, win, hotWindows)
		}()
		defer sampled.Wait()
		results = openLoop(start, calls, maxConns, func(c call) bool {
			it := items[c.item]
			got, ok := send(it, fmt.Sprintf("sim-%d", c.item))
			if ok && it.fresh {
				// Duplicates of a never-seen cell are checked together
				// against an in-process run once the loop is over.
				mu.Lock()
				k := cellKey(it.ref.Workload, it.ref.Mode)
				if freshOut[k] == nil {
					freshOut[k] = map[int][]byte{}
				}
				freshOut[k][c.item] = got
				mu.Unlock()
			}
			return ok
		})
		return nil
	})
	if err != nil {
		return err
	}
	bad, err := b.checkFresh(freshOut)
	if err != nil {
		return err
	}

	byWindow := make([][]callResult, hotWindows)
	for i, r := range results {
		if bad[calls[i].item] {
			r.ok = false
		}
		b.op(r.ok)
		b.lag = append(b.lag, float64(r.lag)/float64(time.Millisecond))
		k := items[calls[i].item].window
		byWindow[k] = append(byWindow[k], r)
	}
	// Each rate's figures come from its quieter half of windows: those
	// in which the hypervisor stole the least CPU from this guest. A
	// stolen vCPU stalls whatever runs on it for a scheduling slice,
	// several times a cached request's latency, so the noisier windows
	// measure the host's other tenants, not this code. The latency
	// percentiles pool the low-rate windows; goodput counts over the
	// high-rate ones.
	var low, high []int
	for k := range byWindow {
		if k%2 == 0 {
			low = append(low, k)
		} else {
			high = append(high, k)
		}
	}
	low, high = quieterHalf(low, steal), quieterHalf(high, steal)
	var inLow, inHigh []callResult
	for _, k := range low {
		inLow = append(inLow, byWindow[k]...)
	}
	lat := latenciesMs(inLow)
	for _, k := range high {
		inHigh = append(inHigh, byWindow[k]...)
	}
	rss, err := w.f.peakRSSMB()
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", rss, "MB", "imtgw + 2 imtd VmHWM")
	b.set("ops_per_s", goodput(inHigh, latencyLimit, time.Duration(len(high))*win), "1/s",
		fmt.Sprintf("goodput within %v at %g/s offered, over the %d quieter of %d windows, n=%d", latencyLimit, highRate, len(high), hotWindows/2, len(inHigh)))
	note := fmt.Sprintf("from due time at %g/s, over the %d quieter of %d windows, n=%d", lowRate, len(low), hotWindows/2, len(lat))
	b.set("p50_ms", percentile(lat, 50), "ms", note)
	b.set("p95_ms", percentile(lat, 95), "ms", note)
	if !supportsPercentile(len(lat), 95) {
		fmt.Fprintf(os.Stderr, "perfbench: %d low-rate samples are too few for a p95\n", len(lat))
	}
	return nil
}

// checkFresh requires every duplicate of a never-seen cell to carry the
// stats of an in-process runner run of that cell. It returns the items
// whose response differed.
func (b *bench) checkFresh(out map[string]map[int][]byte) (map[int]bool, error) {
	byName := map[string]workload.Workload{}
	for _, w := range workload.Catalog() {
		byName[w.Name] = w
	}
	keys := sortedKeys(out)
	jobs := make([]runner.Job, len(keys))
	for i, k := range keys {
		name, mode, _ := strings.Cut(k, "/")
		job, err := jobFor(byName[name], mode)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	results, err := inProcess(b.ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("in-process reference run: %w", err)
	}
	bad := map[int]bool{}
	for i, k := range keys {
		want := canonical(results[i].Stats)
		for item, got := range out[k] {
			if !bytes.Equal(got, want) {
				b.mismatch("never-seen cell %s differs from an in-process runner run", k)
				bad[item] = true
			}
		}
	}
	return bad, nil
}
