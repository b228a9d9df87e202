// Package serve is the networked front end of the reproduction: an
// HTTP JSON API (stdlib-only) that exposes IMT/AFT-ECC simulation cells
// and server-side design-space sweeps as queries over the parallel
// experiment engine, the way the paper's Figure 8 frames tagging
// evaluation — a repeatable function of (workload, tag mode, carve
// geometry) — rather than a one-shot batch run.
//
// The package has two layers. Frontend is the HTTP front end imtd and
// imtgw share: one request decoder with one hostile-input policy
// (capped read, unknown fields and trailing data rejected), drain
// refusal, cell resolution (catalog workload or trace digest, tag mode,
// carve, runner.CacheKeyFor computed once), (workload, mode)-
// deduplicated sweep expansion, deadline clamping, the error envelope
// and failure table, NDJSON streaming, GET /v1/workloads and latency
// metrics. Behind it sits an Executor; Server is the local one and
// cluster.Gateway the ring one. Daemon gives both binaries the same
// Listen/Run lifecycle.
//
// Server adds, on top of internal/runner, the production-shape layers
// the batch CLIs never needed:
//
//   - admission control: a bounded wait queue in front of a fixed
//     worker pool; when the queue is full, interactive requests are
//     rejected immediately with 429 + Retry-After instead of piling up
//     (sweeps opt into patient admission and self-throttle instead).
//   - request coalescing: identical in-flight cells — identified by the
//     engine's content-addressed cache key (runner.CacheKeyFor) — are
//     collapsed into one simulation whose result every waiter shares,
//     so a thundering herd of the same cell costs one run.
//   - result caching: the runner's on-disk cache is consulted before
//     admission, so warm cells cost one file read and no queue slot.
//   - deadlines: per-request timeouts propagate via context into
//     gpusim.RunContext; an exceeded deadline maps to 504.
//   - streaming: sweep grids are expanded server-side and results
//     stream back as NDJSON lines the moment each cell completes.
//   - graceful drain: Daemon.Run stops accepting on its context's
//     cancellation, finishes in-flight requests, stops the job
//     scheduler, and returns so the caller can flush metrics and the
//     run manifest.
//   - durable jobs: POST /v1/jobs runs a sweep grid as a background job
//     under a write-ahead log (serve/jobs), so work survives a daemon
//     crash and resumes on restart without recomputing finished cells;
//     GET /v1/jobs/{id}/stream re-attaches at any frame sequence.
//
// Everything is instrumented through internal/obs: request, queue
// depth, coalesce-hit and latency metrics on the shared registry, an
// optional pprof/expvar debug mux, and an obs.Manifest per server run.
//
// The versioned wire types and the uniform JSON error envelope live in
// serve/apitypes (statusFor in frontend.go is the HTTP failure-mapping
// table); the durable job store and scheduler are the
// serve/jobs subpackage; the client library (typed errors, retry with
// jittered backoff honoring Retry-After, job following across
// restarts) is the serve/client subpackage; cmd/imtd is the daemon and
// cmd/imtload the load generator / job driver.
package serve
