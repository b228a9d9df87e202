// Command imtd is the IMT simulation daemon: it serves simulation
// cells and server-side design-space sweeps over an HTTP JSON API (see
// internal/serve), with admission control, request coalescing, an
// on-disk result cache, per-request deadlines and graceful drain.
//
// Usage:
//
//	imtd -addr :8866 -cache-dir .serve-cache
//	imtd -addr 127.0.0.1:0 -addr-file imtd.addr -queue 4 -j 2
//
// API quickstart:
//
//	curl -s localhost:8866/v1/healthz
//	curl -s localhost:8866/v1/workloads | head
//	curl -s -X POST localhost:8866/v1/sim \
//	  -d '{"workload":"stream-triad-48MB","mode":"carve-low"}'
//	curl -sN -X POST localhost:8866/v1/sweep \
//	  -d '{"suite":"STREAM","modes":["none","imt","carve-low"]}'
//
// With -jobs-dir the daemon also runs a durable job queue: sweeps
// submitted to POST /v1/jobs execute in the background under a
// write-ahead log and survive a crash or restart, resuming without
// recomputing finished cells (see internal/serve/jobs):
//
//	imtd -addr :8866 -cache-dir .serve-cache -jobs-dir .serve-jobs
//	curl -s -X POST localhost:8866/v1/jobs -d '{"suite":"STREAM","modes":["imt"]}'
//	curl -s localhost:8866/v1/jobs/<id>
//	curl -sN localhost:8866/v1/jobs/<id>/stream?from=0
//
// -job-ttl bounds how long finished jobs are retained; -job-workers
// bounds concurrently running jobs.
//
// With -trace-dir the daemon also keeps a content-addressed store of
// uploaded warp-op traces (see internal/tracestore): POST a raw trace
// blob to /v1/traces (imtsim -record writes one) and simulate it by
// naming the workload "trace:<digest>" in any sim, sweep or job.
// Uploads stream to disk — a multi-GB trace never resides in memory —
// and re-uploading the same bytes is a cheap content-address hit.
// -trace-quota-bytes bounds the store (idle blobs are LRU-evicted,
// over-quota uploads get 413) and -trace-ttl ages idle blobs out:
//
//	imtd -addr :8866 -cache-dir .serve-cache -trace-dir .serve-traces
//	imtsim -workload sla-spmv13 -record spmv.trc -upload http://localhost:8866
//	curl -s -X POST localhost:8866/v1/sim -d '{"workload":"trace:<digest>","mode":"imt"}'
//
// Any sim, sweep or job submitted with "watch":true opens a live
// telemetry room: in-flight engine samples broadcast to every watcher
// of GET /v1/watch/{room} as Server-Sent Events, with gapless
// resume-from-sequence (?from=N or Last-Event-ID). The join code
// arrives in the X-Watch-Room header and in the response body:
//
//	curl -si -X POST localhost:8866/v1/sweep \
//	  -d '{"suite":"STREAM","modes":["imt"],"watch":true}' | grep X-Watch-Room
//	curl -sN localhost:8866/v1/watch/<room>
//
// -room-buffer, -room-history and -room-ttl tune watcher eviction,
// resume depth and room retention; watchers are never allowed to slow
// a simulation down (a stalled watcher is evicted and heals on
// re-attach).
//
// On SIGINT/SIGTERM the daemon drains: it stops accepting (new
// requests see 503 + Retry-After until the listener closes), finishes
// in-flight requests and in-flight job cells (interrupted jobs stay
// running in the WAL and are requeued on the next start), then flushes
// -metrics-out and -manifest-out and exits 0. -addr-file writes the
// bound host:port once listening — scripts using an ephemeral port
// (":0") read it instead of parsing logs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8866", "listen address (host:port; port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening")
		workers  = flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "admission queue depth; beyond it requests get 429 (0 = 4×workers)")
		cacheDir = flag.String("cache-dir", "", "content-addressed result cache directory (\"\" disables caching)")
		timeout  = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTO    = flag.Duration("max-timeout", 5*time.Minute, "deadline clamp; also bounds whole sweeps")
		debug    = flag.Bool("debug", false, "mount /debug/pprof, /debug/vars and /metrics on the API port")

		jobsDir    = flag.String("jobs-dir", "", "durable job queue directory; enables POST /v1/jobs (\"\" disables jobs)")
		jobTTL     = flag.Duration("job-ttl", time.Hour, "how long finished jobs are retained before GC")
		jobWorkers = flag.Int("job-workers", 0, "concurrently running jobs (0 = 2)")

		traceDir   = flag.String("trace-dir", "", "uploaded-trace store directory; enables /v1/traces and trace:<digest> workloads (\"\" disables)")
		traceQuota = flag.Int64("trace-quota-bytes", 0, "trace store size quota; over it idle traces are LRU-evicted (0 = unlimited)")
		traceTTL   = flag.Duration("trace-ttl", 0, "idle traces older than this are GC'd (0 = never)")

		roomBuffer  = flag.Int("room-buffer", 0, "telemetry room per-subscriber buffer; overflow evicts the subscriber (0 = 256)")
		roomHistory = flag.Int("room-history", 0, "telemetry room retained frames for resume-from-seq (0 = 65536)")
		roomTTL     = flag.Duration("room-ttl", 0, "how long closed rooms stay attachable (0 = 2m)")
		watchSample = flag.Uint64("watch-sample-interval", 0, "sample interval forced onto watch requests that set none (0 = 50000 cycles)")

		metricsOut  = flag.String("metrics-out", "", "write the metrics registry here on drain (.json → JSON, else Prometheus text)")
		manifestOut = flag.String("manifest-out", "", "write the server-run manifest (JSON) here on drain")
		drainGrace  = flag.Duration("drain-grace", time.Minute, "how long to wait for in-flight requests on shutdown")
	)
	flag.Parse()

	// The signal context exists before the socket is bound, so a signal
	// arriving the moment the port is reachable still drains cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := serve.New(serve.Options{
		FrontendOptions: serve.FrontendOptions{
			DefaultTimeout: *timeout,
			MaxTimeout:     *maxTO,
			Debug:          *debug,
		},
		Workers:    *workers,
		Queue:      *queue,
		CacheDir:   *cacheDir,
		JobsDir:    *jobsDir,
		JobTTL:     *jobTTL,
		JobWorkers: *jobWorkers,

		TraceDir:        *traceDir,
		TraceQuotaBytes: *traceQuota,
		TraceTTL:        *traceTTL,

		RoomBuffer:          *roomBuffer,
		RoomHistory:         *roomHistory,
		RoomTTL:             *roomTTL,
		WatchSampleInterval: *watchSample,
	})
	if err != nil {
		fatal(err)
	}
	d, err := serve.Listen(*addr, srv)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := durable.WriteFile(*addrFile, []byte(d.Addr()+"\n")); err != nil {
			fatal(err)
		}
	}
	o := srv.Options()
	fmt.Fprintf(os.Stderr, "imtd: listening on http://%s (workers=%d queue=%d cache=%q jobs=%q)\n",
		d.Addr(), o.Workers, o.Queue, o.CacheDir, o.JobsDir)

	context.AfterFunc(ctx, func() { fmt.Fprintln(os.Stderr, "imtd: draining (finishing in-flight requests)") })
	if err := d.Run(ctx, *drainGrace); err != nil {
		if ctx.Err() == nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "imtd: drain:", err)
	}

	// Drained cleanly: flush observability outputs.
	stats := srv.Stats()
	fmt.Fprintf(os.Stderr, "imtd: drained: %d requests, %d cells, %d cache hits, %d coalesce hits, %d rejected, %d timeouts, %d errors\n",
		stats.Requests, stats.Cells, stats.CacheHits, stats.CoalesceHits, stats.Rejected, stats.Timeouts, stats.Errors)
	if j := stats.Jobs; j != nil {
		fmt.Fprintf(os.Stderr, "imtd: jobs: %d submitted, %d done, %d failed, %d canceled, %d resumed, %d queued, %d cells (%d resumed)\n",
			j.Submitted, j.Done, j.Failed, j.Canceled, j.ResumedJobs, j.Queued, j.Cells, j.CellsResumed)
	}
	if tr := stats.Traces; tr != nil {
		fmt.Fprintf(os.Stderr, "imtd: traces: %d blobs (%d bytes), %d puts (%d hits), %d rejected, %d evicted, %d deleted\n",
			tr.Blobs, tr.Bytes, tr.Puts, tr.PutHits, tr.Rejected, tr.Evictions, tr.Deletes)
	}
	if *metricsOut != "" {
		if err := srv.Hub().Metrics.WriteFile(*metricsOut); err != nil {
			fatal(err)
		}
	}
	if *manifestOut != "" {
		if err := srv.Manifest().WriteFile(*manifestOut); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imtd:", err)
	os.Exit(1)
}
