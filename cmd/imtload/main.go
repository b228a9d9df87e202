// Command imtload drives synthetic heavy traffic against an imtd
// daemon (cmd/imtd) to demonstrate — and assert — the serving layer's
// production behaviors: request coalescing of a thundering herd,
// result-cache hits, bounded-queue backpressure (429 + Retry-After,
// never a hang), and client-side retry with jittered exponential
// backoff honoring Retry-After.
//
// Usage:
//
//	imtload -addr 127.0.0.1:8866 -n 50 -c 8
//	imtload -addr 127.0.0.1:8866 -n 50 -c 8 -overload 24 \
//	        -min-coalesce 1 -min-cache 1
//	imtload -addr 127.0.0.1:8866 -sweep-suite STREAM -sweep-modes none,imt
//
// Job mode (-jobs / -job-submit / -job-id) replaces the traffic phases
// and exercises the durable job queue instead:
//
//	imtload -addr HOST -jobs -sweep-suite STREAM -sweep-modes none,imt
//	id=$(imtload -addr HOST -job-submit -sweep-suite STREAM)
//	imtload -addr HOST -job-id "$id" -job-wait-cells 2
//	imtload -addr HOST -job-id "$id" -job-follow -job-out run.txt -min-resumed 1
//
// -job-follow re-attaches automatically across daemon restarts and
// -job-out writes a canonical, order-independent result file so a
// crashed-and-resumed run can be byte-compared against an
// uninterrupted baseline.
//
// Trace mode (-traces) replaces the traffic phases with trace-store
// round-trip assertions: a recorded trace file is uploaded twice (the
// second upload must be a content-address hit), a sweep of
// trace:<digest> cells streams back through -addr (imtd or imtgw),
// and the results are byte-compared against an in-process replay of
// the same file. -trace-big-ops streams a large synthetic trace
// through an io.Pipe — never materialized in memory — then deletes it:
//
//	imtsim -workload stream-copy-16MB -record copy.trc
//	imtload -addr HOST -traces -trace-file copy.trc -sweep-modes none,imt \
//	        -trace-big-ops 2000000
//
// Cluster mode (-cluster) also replaces the traffic phases: one
// streaming sweep with exactly-once delivery assertions, designed to
// point at an imtgw gateway (but valid against a plain imtd too):
//
//	imtload -addr GW -cluster -sweep-suite STREAM -sweep-modes none,imt \
//	        -kill-pid $SHARD_PID -kill-after 1 -min-rerouted 1 \
//	        -sweep-out cluster.txt
//
// -kill-pid SIGKILLs a shard once -kill-after cells have streamed; the
// run then asserts that every cell of the grid still arrived exactly
// once (the gateway rerouted the dead shard's remainder), that the
// summary's rerouted count matches the per-cell flags, and that the
// gateway's statsz reports the shard down. -sweep-out writes the same
// canonical result shape as -job-out, so a gateway run byte-compares
// against a single-node baseline.
//
// Phases:
//
//  1. Load: -n requests for the same cell across -c concurrent
//     clients. The first request simulates; concurrent duplicates
//     coalesce onto its flight; later ones hit the result cache.
//  2. Sweep (optional, -sweep-suite): one streaming NDJSON sweep,
//     consumed cell by cell as the server completes them.
//  3. Watch (optional, -watchers K): one watched sweep with K
//     concurrent /v1/watch subscribers. Every watcher must see the
//     identical gapless frame sequence; watcher 0 is killed mid-stream
//     and re-attaches at its last sequence, and with -min-drops a
//     deliberately stalled watcher must be evicted (never allowed to
//     slow the simulation) with the eviction visible in the server's
//     drop counter.
//  4. Overload (optional, -overload N): N simultaneous *distinct*
//     cells with retries disabled, deliberately exceeding the server's
//     worker+queue capacity. Every rejection must be a 429 carrying
//     Retry-After; a missing header or a hang fails the run.
//
// Afterwards imtload fetches /v1/statsz and enforces -min-coalesce /
// -min-cache against the server's own counters, exiting nonzero if the
// run did not demonstrate what it was asked to demonstrate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/gpusim"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/client"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8866", "imtd address (host:port)")
		n         = flag.Int("n", 50, "total load-phase requests")
		conc      = flag.Int("c", 8, "concurrent clients")
		name      = flag.String("workload", "stream-triad-16MB", "load-phase workload")
		mode      = flag.String("mode", "carve-low", "load-phase tagging mode")
		maxCycles = flag.Uint64("max-cycles", 0, "per-cell cycle cap (0 = simulator default)")
		timeoutMs = flag.Int64("timeout-ms", 20000, "per-request deadline sent to the server")
		wait      = flag.Duration("wait", 10*time.Second, "how long to wait for the server to become healthy")

		sweepSuite = flag.String("sweep-suite", "", "also run one streaming sweep over this suite")
		sweepModes = flag.String("sweep-modes", "none,carve-low", "comma-separated modes for -sweep-suite")

		watchers    = flag.Int("watchers", 0, "watch phase: fan this many concurrent watchers out over one watched sweep of -sweep-suite (0 skips)")
		watchSample = flag.Uint64("watch-sample-interval", 2000, "watch phase: sample interval requested for the watched sweep (cycles)")
		minDrops    = flag.Uint64("min-drops", 0, "watch phase: also attach a deliberately stalled watcher and fail unless the server reports at least this many room drops")

		overload    = flag.Int("overload", 0, "overload phase: this many simultaneous distinct no-retry requests (0 skips)")
		minCoalesce = flag.Uint64("min-coalesce", 0, "fail unless the server reports at least this many coalesce hits")
		minCache    = flag.Uint64("min-cache", 0, "fail unless the server reports at least this many cache hits")

		clusterMode = flag.Bool("cluster", false, "cluster mode: one streaming sweep with exactly-once assertions (point -addr at an imtgw gateway)")
		killPid     = flag.Int("kill-pid", 0, "cluster mode: SIGKILL this pid once -kill-after cells have streamed (a shard dying mid-sweep)")
		killAfter   = flag.Int("kill-after", 1, "cluster mode: cells to receive before firing -kill-pid")
		minRerouted = flag.Int("min-rerouted", 0, "cluster mode: fail unless the sweep summary reports at least this many rerouted cells")
		sweepOut    = flag.String("sweep-out", "", "cluster mode: write canonical sorted result lines here (for byte-comparing gateway vs single-node runs)")

		tracesMode  = flag.Bool("traces", false, "trace mode: upload -trace-file twice (second must content-address hit), sweep trace:<digest> cells, byte-compare against an in-process replay")
		traceFile   = flag.String("trace-file", "", "trace mode: recorded trace file (imtsim -record) to upload and simulate")
		traceBigOps = flag.Int("trace-big-ops", 0, "trace mode: also stream-upload a synthetic trace with this many ops per SM, stat it and delete it (0 skips)")

		tenant       = flag.String("tenant", "imtload", "tenant the job phase submits under")
		jobs         = flag.Bool("jobs", false, "job mode: submit a durable job for -sweep-suite/-sweep-modes and follow it to completion")
		jobSubmit    = flag.Bool("job-submit", false, "job mode: submit a job, print its id on stdout, exit")
		jobID        = flag.String("job-id", "", "job mode: operate on this existing job id")
		jobWaitCells = flag.Int("job-wait-cells", 0, "job mode: poll the job until at least this many cells are done, then exit")
		jobFollow    = flag.Bool("job-follow", false, "job mode: stream the job to completion, re-attaching across restarts")
		jobOut       = flag.String("job-out", "", "job mode: write canonical sorted result lines to this file after following")
		minResumed   = flag.Int("min-resumed", 0, "job mode: fail unless the job reports at least this many resumed cells")
	)
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cl := client.New(base)
	ctx := context.Background()

	if err := waitHealthy(ctx, cl, *wait); err != nil {
		fatal(err)
	}

	// Cluster mode replaces the traffic phases: one streaming sweep with
	// exactly-once delivery assertions, optionally killing a shard
	// process mid-stream to exercise the gateway's reroute path.
	if *clusterMode {
		os.Exit(runClusterMode(ctx, cl, clusterOpts{
			suite:       *sweepSuite,
			modes:       strings.Split(*sweepModes, ","),
			maxCycles:   *maxCycles,
			timeoutMs:   *timeoutMs,
			killPid:     *killPid,
			killAfter:   *killAfter,
			minRerouted: *minRerouted,
			out:         *sweepOut,
		}))
	}

	// Trace mode also replaces the traffic phases: record→upload→serve
	// round-trip assertions against a trace-store-enabled imtd or imtgw.
	if *tracesMode {
		os.Exit(runTracesMode(ctx, cl, traceOpts{
			file:      *traceFile,
			modes:     strings.Split(*sweepModes, ","),
			maxCycles: *maxCycles,
			timeoutMs: *timeoutMs,
			bigOps:    *traceBigOps,
		}))
	}

	// Job mode replaces the load/sweep/overload phases: imtload acts as
	// a job submitter/follower instead of a traffic generator.
	if *jobs || *jobSubmit || *jobID != "" {
		os.Exit(runJobMode(ctx, cl, jobOpts{
			tenant:     *tenant,
			suite:      *sweepSuite,
			modes:      strings.Split(*sweepModes, ","),
			maxCycles:  *maxCycles,
			timeoutMs:  *timeoutMs,
			submitOnly: *jobSubmit,
			id:         *jobID,
			waitCells:  *jobWaitCells,
			follow:     *jobFollow || *jobs,
			out:        *jobOut,
			minResumed: *minResumed,
		}))
	}

	failures := 0

	// Phase 1: thundering herd on one cell.
	req := apitypes.SimRequest{Workload: *name, Mode: *mode, MaxCycles: *maxCycles, TimeoutMs: *timeoutMs}
	lr := runLoad(ctx, cl, req, *n, *conc)
	fmt.Printf("load: %d requests, %d ok, %d failed, %d coalesced, %d cached | p50 %.1fms p95 %.1fms max %.1fms\n",
		*n, lr.ok, lr.failed, lr.coalesced, lr.cached, lr.p(50), lr.p(95), lr.p(100))
	if lr.failed > 0 {
		fmt.Println("load: FAILED requests:", lr.firstErr)
		failures++
	}

	// Phase 2: one streaming sweep.
	if *sweepSuite != "" {
		modes := strings.Split(*sweepModes, ",")
		t0 := time.Now()
		var lines int
		summary, err := cl.Sweep(ctx, apitypes.SweepRequest{Suite: *sweepSuite, Modes: modes, MaxCycles: *maxCycles},
			func(apitypes.CellResult) error { lines++; return nil })
		if err != nil {
			fmt.Println("sweep: FAILED:", err)
			failures++
		} else {
			fmt.Printf("sweep: %d cells streamed in %.0fms (%d cached, %d coalesced, %d failed)\n",
				lines, float64(time.Since(t0))/float64(time.Millisecond),
				summary.Cached, summary.Coalesced, summary.Failed)
			if lines != summary.Cells {
				fmt.Printf("sweep: FAILED: streamed %d cells, summary says %d\n", lines, summary.Cells)
				failures++
			}
		}
	}

	// Phase 3: live telemetry fan-out. One watched sweep, -watchers
	// concurrent subscribers; every watcher must see the identical
	// gapless frame sequence even though one of them is killed and
	// re-attached mid-run (and, with -min-drops, one is deliberately
	// stalled until the server evicts it).
	if *watchers > 0 {
		if *sweepSuite == "" {
			fatal(errors.New("imtload: -watchers needs -sweep-suite"))
		}
		failures += runWatchPhase(ctx, cl, base, watchPhaseOpts{
			suite:     *sweepSuite,
			modes:     strings.Split(*sweepModes, ","),
			maxCycles: *maxCycles,
			timeoutMs: *timeoutMs,
			sample:    *watchSample,
			k:         *watchers,
			slow:      *minDrops > 0,
		})
	}

	// Phase 4: induced overload. Distinct cells (different cycle caps →
	// different cache keys) so neither the cache nor coalescing can
	// absorb the burst, and no retries so every 429 is observed raw.
	if *overload > 0 {
		or := runOverload(ctx, cl, *name, *mode, *overload, *timeoutMs)
		fmt.Printf("overload: %d simultaneous distinct requests: %d ok, %d rejected(429), %d other errors\n",
			*overload, or.ok, or.rejected, or.otherErrs)
		if or.rejected == 0 {
			fmt.Println("overload: FAILED: no request was rejected; backpressure not demonstrated (raise -overload or shrink the server's -queue/-j)")
			failures++
		}
		if or.missingRetryAfter > 0 {
			fmt.Printf("overload: FAILED: %d of %d rejections arrived without Retry-After\n", or.missingRetryAfter, or.rejected)
			failures++
		}
		if or.otherErrs > 0 {
			fmt.Println("overload: FAILED:", or.firstOtherErr)
			failures++
		}
	}

	// Server-side truth: the daemon's own counters.
	stats, err := cl.Stats(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("server: %d requests, %d cells, %d cache hits, %d coalesce hits, %d rejected, %d timeouts, %d errors\n",
		stats.Requests, stats.Cells, stats.CacheHits, stats.CoalesceHits, stats.Rejected, stats.Timeouts, stats.Errors)
	rev := stats.VCSRevision
	if rev == "" {
		rev = "unknown"
	} else if stats.VCSModified {
		rev += "+dirty"
	}
	fmt.Printf("server: up %.1fs, %s, rev %s, config %s\n",
		stats.UptimeSeconds, stats.GoVersion, rev, stats.ConfigHash)
	if stats.Rooms != nil {
		fmt.Printf("rooms: %d open, %d subscribers, %d frames, %d drops\n",
			stats.Rooms.Open, stats.Rooms.Subscribers, stats.Rooms.Frames, stats.Rooms.Drops)
	}
	if *minDrops > 0 {
		var drops uint64
		if stats.Rooms != nil {
			drops = stats.Rooms.Drops
		}
		if drops < *minDrops {
			fmt.Printf("FAILED: server room drops %d < required %d (slow watcher was never evicted)\n", drops, *minDrops)
			failures++
		}
	}
	if stats.CoalesceHits < *minCoalesce {
		fmt.Printf("FAILED: server coalesce hits %d < required %d\n", stats.CoalesceHits, *minCoalesce)
		failures++
	}
	if stats.CacheHits < *minCache {
		fmt.Printf("FAILED: server cache hits %d < required %d\n", stats.CacheHits, *minCache)
		failures++
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// waitHealthy polls /v1/healthz until the server answers or the budget
// runs out — imtd may still be binding when a script launches both.
func waitHealthy(ctx context.Context, cl *client.Client, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := cl.Health(hctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("imtload: server not healthy after %v: %w", budget, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

type loadResult struct {
	ok, failed, coalesced, cached int64
	latencies                     []float64 // ms, sorted by p()
	firstErr                      error
	mu                            sync.Mutex
}

// p returns the q-th latency percentile in milliseconds.
func (l *loadResult) p(q int) float64 {
	if len(l.latencies) == 0 {
		return 0
	}
	sort.Float64s(l.latencies)
	i := len(l.latencies) * q / 100
	if i >= len(l.latencies) {
		i = len(l.latencies) - 1
	}
	return l.latencies[i]
}

// runLoad fires n identical requests across conc goroutines. The herd
// is released together (a start barrier) so the coalescing window is
// real, not an artifact of staggered starts.
func runLoad(ctx context.Context, cl *client.Client, req apitypes.SimRequest, n, conc int) *loadResult {
	lr := &loadResult{}
	var (
		next  atomic.Int64
		start = make(chan struct{})
		wg    sync.WaitGroup
	)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				if next.Add(1) > int64(n) {
					return
				}
				t0 := time.Now()
				res, err := cl.Sim(ctx, req)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				lr.mu.Lock()
				lr.latencies = append(lr.latencies, ms)
				if err != nil {
					lr.failed++
					if lr.firstErr == nil {
						lr.firstErr = err
					}
				} else {
					lr.ok++
					if res.Coalesced {
						lr.coalesced++
					}
					if res.Cached {
						lr.cached++
					}
				}
				lr.mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()
	return lr
}

type overloadResult struct {
	ok, rejected, otherErrs, missingRetryAfter int64
	firstOtherErr                              error
}

// runOverload fires k distinct requests simultaneously with retries
// disabled. "Never a hang" is enforced by the per-request deadline:
// every request must resolve to 200, 429-with-Retry-After, or a
// counted error.
func runOverload(ctx context.Context, cl *client.Client, name, mode string, k int, timeoutMs int64) *overloadResult {
	raw := client.New(cl.BaseURL)
	raw.MaxRetries = 0
	or := &overloadResult{}
	var (
		mu    sync.Mutex
		start = make(chan struct{})
		wg    sync.WaitGroup
	)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// Distinct cycle caps defeat coalescing and the cache: every
			// request is genuinely new work.
			req := apitypes.SimRequest{
				Workload:  name,
				Mode:      mode,
				MaxCycles: 1_000_000 + uint64(i),
				TimeoutMs: timeoutMs,
			}
			_, err := raw.Sim(ctx, req)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				or.ok++
				return
			}
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.StatusCode == 429 {
				or.rejected++
				if apiErr.RetryAfter <= 0 {
					or.missingRetryAfter++
				}
				return
			}
			or.otherErrs++
			if or.firstOtherErr == nil {
				or.firstOtherErr = err
			}
		}(i)
	}
	close(start)
	wg.Wait()
	return or
}

// clusterOpts configures cluster mode (-cluster).
type clusterOpts struct {
	suite       string
	modes       []string
	maxCycles   uint64
	timeoutMs   int64
	killPid     int
	killAfter   int
	minRerouted int
	out         string
}

// runClusterMode streams one sweep and enforces the cluster delivery
// contract: every cell of the grid arrives exactly once and cleanly,
// even when -kill-pid takes a shard down mid-stream (the gateway must
// reroute the dead shard's remainder, visible in summary.rerouted and
// the per-cell rerouted flags). With -sweep-out the canonical result
// set is written for byte-comparison against a single-node run.
func runClusterMode(ctx context.Context, cl *client.Client, o clusterOpts) int {
	if o.suite == "" {
		fatal(errors.New("imtload: -cluster needs -sweep-suite"))
	}
	failures := 0
	var (
		cells    []apitypes.CellResult
		seen     = map[apitypes.CellRef]bool{}
		dups     int
		rerouted int
		killed   bool
	)
	t0 := time.Now()
	summary, err := cl.Sweep(ctx, apitypes.SweepRequest{
		Suite: o.suite, Modes: o.modes,
		MaxCycles: o.maxCycles, TimeoutMs: o.timeoutMs,
	}, func(res apitypes.CellResult) error {
		cells = append(cells, res)
		ref := apitypes.CellRef{Workload: res.Workload, Mode: res.Mode}
		if seen[ref] {
			dups++
		}
		seen[ref] = true
		if res.Rerouted {
			rerouted++
		}
		if o.killPid != 0 && !killed && len(cells) >= o.killAfter {
			killed = true
			fmt.Fprintf(os.Stderr, "cluster: killing pid %d after %d cells\n", o.killPid, len(cells))
			if err := syscall.Kill(o.killPid, syscall.SIGKILL); err != nil {
				return fmt.Errorf("imtload: kill %d: %w", o.killPid, err)
			}
		}
		return nil
	})
	if err != nil {
		fmt.Println("cluster: FAILED: sweep:", err)
		return 1
	}
	fmt.Printf("cluster: %d cells streamed in %.0fms (%d cached, %d coalesced, %d failed, %d rerouted, %d shards)\n",
		len(cells), float64(time.Since(t0))/float64(time.Millisecond),
		summary.Cached, summary.Coalesced, summary.Failed, summary.Rerouted, summary.Shards)

	if dups > 0 {
		fmt.Printf("cluster: FAILED: %d cells delivered more than once\n", dups)
		failures++
	}
	if len(cells) != summary.Cells {
		fmt.Printf("cluster: FAILED: streamed %d cells, summary says %d\n", len(cells), summary.Cells)
		failures++
	}
	if summary.Failed > 0 {
		for _, c := range cells {
			if c.Error != "" {
				fmt.Printf("cluster: FAILED: cell %s|%s: %s\n", c.Workload, c.Mode, c.Error)
			}
		}
		failures++
	}
	if rerouted != summary.Rerouted {
		fmt.Printf("cluster: FAILED: %d rerouted flags on lines, summary says %d\n", rerouted, summary.Rerouted)
		failures++
	}
	if o.killPid != 0 && !killed {
		fmt.Printf("cluster: FAILED: sweep finished before %d cells arrived; -kill-pid never fired\n", o.killAfter)
		failures++
	}
	if summary.Rerouted < o.minRerouted {
		fmt.Printf("cluster: FAILED: rerouted cells %d < required %d\n", summary.Rerouted, o.minRerouted)
		failures++
	}

	// Gateway-side truth: the aggregate plus the per-shard breakdown
	// with breaker states (against a plain imtd both sections are
	// simply absent).
	snap, err := cl.GatewayStats(ctx)
	if err != nil {
		fatal(err)
	}
	if g := snap.Gateway; g != nil {
		fmt.Printf("gateway: %d requests, %d cells, %d rerouted, %d shard errors, %d breaker opens, %d/%d shards up\n",
			g.Requests, g.Cells, g.Rerouted, g.ShardErrors, g.BreakerOpens, g.ShardsUp, g.ShardsTotal)
		for _, row := range snap.Shards {
			line := fmt.Sprintf("gateway: shard %s: breaker %s, %d rerouted away", row.Shard, row.Breaker, row.Rerouted)
			if row.Error != "" {
				line += ", statsz error: " + row.Error
			} else if row.Stats != nil {
				line += fmt.Sprintf(", %d cells served", row.Stats.Cells)
			}
			fmt.Println(line)
		}
		if o.killPid != 0 && killed && g.ShardsUp >= g.ShardsTotal {
			fmt.Println("cluster: FAILED: a shard was killed but the gateway still reports the whole fleet up")
			failures++
		}
	}

	if o.out != "" {
		if err := os.WriteFile(o.out, canonicalCells(cells), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cluster: wrote %d canonical lines to %s\n", len(cells), o.out)
	}
	return failures
}

// canonicalCells renders sweep results as sorted {workload, mode,
// stats, error} JSON lines — the same canonical shape as job frames:
// completion order, shard placement and cache provenance legitimately
// differ between runs, the simulator stats must not.
func canonicalCells(cells []apitypes.CellResult) []byte {
	lines := make([]string, 0, len(cells))
	for _, c := range cells {
		b, err := json.Marshal(struct {
			Workload string        `json:"workload"`
			Mode     string        `json:"mode"`
			Stats    *gpusim.Stats `json:"stats,omitempty"`
			Error    string        `json:"error,omitempty"`
		}{c.Workload, c.Mode, c.Stats, c.Error})
		if err != nil {
			fatal(err)
		}
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

// jobOpts configures job mode (-jobs / -job-submit / -job-id).
type jobOpts struct {
	tenant, suite string
	modes         []string
	maxCycles     uint64
	timeoutMs     int64
	submitOnly    bool
	id            string
	waitCells     int
	follow        bool
	out           string
	minResumed    int
}

// runJobMode drives the durable-job verbs: submit, poll until N cells
// are done (the smoke script's pre-kill barrier), and follow to
// completion with automatic re-attach across daemon restarts. With
// -job-out it writes one canonical JSON line per cell — sorted, and
// stripped of fields that legitimately differ between a fresh and a
// resumed run — so two runs of the same grid can be compared with cmp.
func runJobMode(ctx context.Context, cl *client.Client, o jobOpts) int {
	failures := 0
	id := o.id
	if id == "" {
		info, err := cl.SubmitJob(ctx, apitypes.JobRequest{
			Tenant: o.tenant,
			SweepRequest: apitypes.SweepRequest{
				Suite: o.suite, Modes: o.modes,
				MaxCycles: o.maxCycles, TimeoutMs: o.timeoutMs,
			},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "job: submitted %s (%d cells, tenant %s)\n", info.ID, info.Cells, info.Tenant)
		id = info.ID
		if o.submitOnly {
			fmt.Println(id) // bare id on stdout, for scripts to capture
			return 0
		}
	}

	if o.waitCells > 0 {
		info := waitJobCells(ctx, cl, id, o.waitCells)
		fmt.Printf("job: %s %s with %d/%d cells done\n", id, info.State, info.DoneCells, info.Cells)
	}

	if o.follow {
		var frames []apitypes.JobFrame
		t0 := time.Now()
		summary, err := cl.FollowJob(ctx, id, 0, func(f apitypes.JobFrame) error {
			frames = append(frames, f)
			return nil
		})
		if err != nil {
			fmt.Println("job: FAILED: follow:", err)
			return 1
		}
		final, err := cl.Job(ctx, id)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("job: %s %s: %d frames in %.0fms (%d resumed, %d failed cells)\n",
			id, summary.State, len(frames),
			float64(time.Since(t0))/float64(time.Millisecond),
			final.ResumedCells, final.FailedCells)
		if summary.State != apitypes.JobDone {
			fmt.Printf("job: FAILED: terminal state %s (%s)\n", summary.State, final.Error)
			failures++
		}
		if len(frames) != final.Cells {
			fmt.Printf("job: FAILED: streamed %d frames, grid has %d cells\n", len(frames), final.Cells)
			failures++
		}
		if final.ResumedCells < o.minResumed {
			fmt.Printf("job: FAILED: resumed cells %d < required %d\n", final.ResumedCells, o.minResumed)
			failures++
		}
		if o.out != "" {
			if err := os.WriteFile(o.out, canonicalFrames(frames), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "job: wrote %d canonical lines to %s\n", len(frames), o.out)
		}
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		fatal(err)
	}
	if js := stats.Jobs; js != nil {
		fmt.Printf("server jobs: %d submitted, %d done, %d failed, %d canceled, %d resumed | %d cells (%d resumed, %d failed) | wal %dB\n",
			js.Submitted, js.Done, js.Failed, js.Canceled, js.ResumedJobs,
			js.Cells, js.CellsResumed, js.CellsFailed, js.WALBytes)
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// waitJobCells polls until the job has at least n cells done or goes
// terminal.
func waitJobCells(ctx context.Context, cl *client.Client, id string, n int) apitypes.JobInfo {
	for {
		info, err := cl.Job(ctx, id)
		if err != nil {
			fatal(err)
		}
		if info.DoneCells >= n || info.State.Terminal() {
			return info
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// canonicalFrames renders frames as sorted {workload, mode, stats,
// error} JSON lines. Seq, Cached, Coalesced, and ElapsedMs are dropped:
// completion order and cache behavior legitimately differ between an
// uninterrupted run and one resumed after a crash, while the simulator
// stats must be byte-identical.
func canonicalFrames(frames []apitypes.JobFrame) []byte {
	lines := make([]string, 0, len(frames))
	for _, f := range frames {
		b, err := json.Marshal(struct {
			Workload string        `json:"workload"`
			Mode     string        `json:"mode"`
			Stats    *gpusim.Stats `json:"stats,omitempty"`
			Error    string        `json:"error,omitempty"`
		}{f.Cell.Workload, f.Cell.Mode, f.Cell.Stats, f.Cell.Error})
		if err != nil {
			fatal(err)
		}
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

type watchPhaseOpts struct {
	suite     string
	modes     []string
	maxCycles uint64
	timeoutMs int64
	sample    uint64
	k         int
	slow      bool
}

// errWatcherKilled simulates a watcher process dying mid-stream: the
// chaos watcher aborts its first attach with it, then re-attaches at
// the next sequence and must end up with the same frames as everyone
// else.
var errWatcherKilled = errors.New("imtload: simulated watcher kill")

// runWatchPhase runs one watched sweep with k concurrent watchers and
// asserts the live-telemetry contract: every watcher sees the
// identical, gapless frame sequence; watcher 0 is killed mid-stream
// and heals by re-attaching; an optional never-reading watcher gets
// evicted without perturbing anyone. Returns the failure count.
func runWatchPhase(ctx context.Context, cl *client.Client, base string, o watchPhaseOpts) int {
	roomCh := make(chan string, 1)
	sweepErr := make(chan error, 1)
	go func() {
		_, err := cl.SweepWatch(ctx, apitypes.SweepRequest{
			Suite: o.suite, Modes: o.modes,
			MaxCycles: o.maxCycles, TimeoutMs: o.timeoutMs,
			SampleInterval: o.sample,
		}, func(room string) { roomCh <- room }, nil)
		sweepErr <- err
	}()
	var room string
	select {
	case room = <-roomCh:
	case err := <-sweepErr:
		fmt.Println("watch: FAILED: sweep ended before announcing a room:", err)
		return 1
	}

	// The stalled watcher attaches first so it sees the whole broadcast
	// pile up against its tiny receive buffer.
	var stopSlow func()
	if o.slow {
		var err error
		if stopSlow, err = startStalledWatcher(base, room); err != nil {
			fmt.Println("watch: FAILED: stalled watcher:", err)
			return 1
		}
	}

	frames := make([][]apitypes.WatchFrame, o.k)
	errs := make([]error, o.k)
	var killSeq atomic.Int64
	killSeq.Store(-1)
	var wg sync.WaitGroup
	for i := 0; i < o.k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			collect := func(f apitypes.WatchFrame) error {
				frames[i] = append(frames[i], f)
				return nil
			}
			if i != 0 {
				_, errs[i] = cl.FollowWatch(ctx, room, 0, collect)
				return
			}
			// Chaos watcher: die mid-stream, come back, merge gaplessly.
			const killAfter = 15
			_, err := cl.Watch(ctx, room, 0, func(f apitypes.WatchFrame) error {
				frames[0] = append(frames[0], f)
				if len(frames[0]) == killAfter {
					return errWatcherKilled
				}
				return nil
			})
			if err == nil {
				return // room closed before the kill point; too short
			}
			if !errors.Is(err, errWatcherKilled) {
				errs[0] = err
				return
			}
			killSeq.Store(int64(frames[0][len(frames[0])-1].Seq))
			_, errs[0] = cl.FollowWatch(ctx, room, frames[0][len(frames[0])-1].Seq+1, collect)
		}(i)
	}
	wg.Wait()
	if stopSlow != nil {
		stopSlow()
	}
	failures := 0
	if err := <-sweepErr; err != nil {
		fmt.Println("watch: FAILED: sweep:", err)
		failures++
	}
	for i, err := range errs {
		if err != nil {
			fmt.Printf("watch: FAILED: watcher %d: %v\n", i, err)
			failures++
		}
	}
	if failures > 0 {
		return failures
	}
	if killSeq.Load() < 0 {
		fmt.Println("watch: FAILED: run finished before the kill point; lower -watch-sample-interval so the kill/re-attach path is exercised")
		failures++
	}
	want := canonicalWatchFrames(frames[0])
	if len(frames[0]) == 0 {
		fmt.Println("watch: FAILED: no frames broadcast (is sampling on?)")
		return failures + 1
	}
	for i, f := range frames[0] {
		if f.Seq != i {
			fmt.Printf("watch: FAILED: watcher 0 has a gap: frame %d carries seq %d\n", i, f.Seq)
			return failures + 1
		}
	}
	for i := 1; i < o.k; i++ {
		if string(canonicalWatchFrames(frames[i])) != string(want) {
			fmt.Printf("watch: FAILED: watcher %d diverged from watcher 0 (%d vs %d frames)\n",
				i, len(frames[i]), len(frames[0]))
			failures++
		}
	}
	if failures == 0 {
		fmt.Printf("watch: %d watchers each saw %d identical gapless frames (watcher 0 killed at seq %d and re-attached)\n",
			o.k, len(frames[0]), killSeq.Load())
	}
	return failures
}

// canonicalWatchFrames renders a watcher's frame sequence as JSON
// lines, order preserved — unlike job frames, watch frames must match
// across watchers in sequence order, not just as a set.
func canonicalWatchFrames(frames []apitypes.WatchFrame) []byte {
	var buf []byte
	for _, f := range frames {
		b, err := json.Marshal(f)
		if err != nil {
			fatal(err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	return buf
}

// startStalledWatcher attaches to the room over a raw TCP connection
// with a deliberately tiny receive buffer and then never reads: the
// kernel's windows fill, the server's writes block, the subscriber's
// frame buffer overflows, and the room must evict it (counted in
// serve_room_drops_total) rather than ever stalling the simulation.
func startStalledWatcher(base, room string) (stop func(), err error) {
	host := strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
	d := net.Dialer{
		Timeout: 5 * time.Second,
		Control: func(_, _ string, rc syscall.RawConn) error {
			var serr error
			cerr := rc.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 2048)
			})
			if cerr != nil {
				return cerr
			}
			return serr
		},
	}
	conn, err := d.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(conn, "GET /v1/watch/%s?from=0 HTTP/1.1\r\nHost: %s\r\nAccept: text/event-stream\r\n\r\n", room, host); err != nil {
		conn.Close()
		return nil, err
	}
	return func() { conn.Close() }, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imtload:", err)
	os.Exit(1)
}
