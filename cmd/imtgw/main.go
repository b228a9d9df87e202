// Command imtgw is the IMT cluster gateway: a front for a fleet of imtd
// shards that holds no state that changes an answer — its only memory
// is a bounded memo of immutable /v1/sim results. It consistent-hashes
// cells across the fleet on their content-addressed cache keys (so a
// cell always lands on the shard whose result cache already holds it),
// scatters sweeps as per-shard cell lists, merges the shards' NDJSON
// streams into one client stream, and reroutes cells off shards that
// fail mid-flight.
//
// Usage:
//
//	imtgw -addr :8800 -shards http://127.0.0.1:8866,http://127.0.0.1:8867
//	imtgw -addr 127.0.0.1:0 -addr-file imtgw.addr \
//	      -shard http://10.0.0.1:8866 -shard http://10.0.0.2:8866
//
// The gateway serves the same /v1/sim, /v1/sweep, /v1/workloads,
// /v1/statsz and /v1/healthz API as a single imtd, so clients (imtload,
// curl, internal/serve/client) point at it unchanged. /v1/statsz
// answers the fleet-wide aggregate plus a per-shard breakdown with
// breaker states. Every route is the shared front end's, the same code
// imtd serves. Jobs and watch rooms are shard-scoped: the gateway runs
// no job queue and hosts no rooms, so the shared handlers answer
// their routes with 404 not_found.
//
// Shard health is probed every -probe-interval; a failed probe or
// request opens the shard's circuit breaker and traffic reroutes to
// the next shard in each key's ring order until probes succeed again.
// Because routing is a pure function of the fleet list, any number of
// imtgw processes with the same -shards route identically.
//
// On SIGINT/SIGTERM the gateway drains: new requests see 503 +
// Retry-After, in-flight merges finish, then -metrics-out and
// -manifest-out are flushed and the process exits 0. Drain gateways
// before shards — see OPERATIONS.md for the full ordering.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
)

func main() {
	var shards []string
	var (
		addr     = flag.String("addr", "127.0.0.1:8800", "listen address (host:port; port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening")
		shardCSV = flag.String("shards", "", "comma-separated imtd base URLs (e.g. http://127.0.0.1:8866,http://127.0.0.1:8867)")
		replicas = flag.Int("replicas", 0, "virtual nodes per shard on the hash ring (0 = 128)")

		probeIvl = flag.Duration("probe-interval", time.Second, "background shard health-probe period")
		probeTO  = flag.Duration("probe-timeout", 2*time.Second, "per-probe deadline")
		timeout  = flag.Duration("timeout", 30*time.Second, "default /v1/sim deadline")
		maxTO    = flag.Duration("max-timeout", 5*time.Minute, "deadline clamp; also bounds whole sweeps")
		maxCells = flag.Int("max-sweep-cells", 0, "sweep grid size cap (0 = 4096)")
		debug    = flag.Bool("debug", false, "mount /debug/pprof, /debug/vars and /metrics on the API port")

		metricsOut  = flag.String("metrics-out", "", "write the metrics registry here on drain (.json → JSON, else Prometheus text)")
		manifestOut = flag.String("manifest-out", "", "write the gateway-run manifest (JSON) here on drain")
		drainGrace  = flag.Duration("drain-grace", time.Minute, "how long to wait for in-flight requests on shutdown")
	)
	flag.Func("shard", "one imtd base URL (repeatable; merged with -shards)", func(s string) error {
		shards = append(shards, s)
		return nil
	})
	flag.Parse()

	// The signal context exists before the socket is bound, so a signal
	// arriving the moment /v1/healthz answers still drains cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, s := range strings.Split(*shardCSV, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	if len(shards) == 0 {
		fatal(fmt.Errorf("no shards configured (use -shards or repeated -shard)"))
	}

	gw, err := cluster.New(cluster.Options{
		FrontendOptions: serve.FrontendOptions{
			DefaultTimeout: *timeout,
			MaxTimeout:     *maxTO,
			MaxSweepCells:  *maxCells,
			Debug:          *debug,
		},
		Shards:        shards,
		Replicas:      *replicas,
		ProbeInterval: *probeIvl,
		ProbeTimeout:  *probeTO,
	})
	if err != nil {
		fatal(err)
	}

	d, err := serve.Listen(*addr, gw)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := durable.WriteFile(*addrFile, []byte(d.Addr()+"\n")); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "imtgw: listening on http://%s (shards=%d replicas=%d)\n",
		d.Addr(), len(gw.Ring().Shards()), ringReplicas(*replicas))

	context.AfterFunc(ctx, func() { fmt.Fprintln(os.Stderr, "imtgw: draining (finishing in-flight streams)") })
	if err := d.Run(ctx, *drainGrace); err != nil {
		if ctx.Err() == nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "imtgw: drain:", err)
	}

	// Drained cleanly: flush observability outputs.
	snap := gw.Stats(context.Background())
	if g := snap.Gateway; g != nil {
		fmt.Fprintf(os.Stderr, "imtgw: drained: %d requests, %d cells, %d rerouted, %d shard errors, %d breaker opens, %d/%d shards up\n",
			g.Requests, g.Cells, g.Rerouted, g.ShardErrors, g.BreakerOpens, g.ShardsUp, g.ShardsTotal)
	}
	if *metricsOut != "" {
		if err := gw.Hub().Metrics.WriteFile(*metricsOut); err != nil {
			fatal(err)
		}
	}
	if *manifestOut != "" {
		if err := gw.Manifest().WriteFile(*manifestOut); err != nil {
			fatal(err)
		}
	}
}

func ringReplicas(n int) int {
	if n <= 0 {
		return cluster.DefaultReplicas
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imtgw:", err)
	os.Exit(1)
}
