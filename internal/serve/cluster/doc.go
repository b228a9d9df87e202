// Package cluster is the multi-node layer of the serving stack: a
// stateless imtgw gateway that shards work across a fleet of imtd
// servers.
//
// Gateway is the ring executor behind the same serve.Frontend that
// fronts a single imtd: request decoding, validation, sweep expansion,
// deadlines, the error envelope, NDJSON streaming and every route — the
// trace routes, statsz and healthz included — are that one shared front
// end, so imtgw answers exactly as an imtd would. This package adds
// only what differs — ring assignment, per-shard scatter, the
// exactly-once merge, reroute, the fleet as one trace store with
// push-on-miss, the aggregated statsz snapshot and the "no healthy
// shards" readiness verdict. cmd/imtgw runs it through serve.Daemon
// like cmd/imtd.
//
// # Routing
//
// Every cell has a content-addressed cache key (runner.CacheKeyFor):
// the hash of the simulated machine, the workload's parameters, and
// the tagging configuration, all in the canonical form the simulator
// runs (gpusim.Config.Canonical — a workload's none, imt and ecc-steal
// cells share one key). The gateway consistent-hashes that key onto a
// ring of virtual nodes (Ring), so
//
//   - a cell always routes to the shard whose on-disk result cache
//     already holds it — cache affinity with zero shard-local state;
//   - two gateways configured with the same fleet route identically,
//     so gateways scale horizontally behind a dumb TCP balancer;
//   - growing the fleet from N to N+1 shards moves only ~1/(N+1) of
//     the keys (the share the new shard takes over).
//
// # Scatter and merge
//
// A sweep is expanded to its cell grid by the shared front end (the
// gateway embeds the same workload catalog as the shards), grouped by
// owning shard, and
// scattered as one POST /v1/sweep per shard carrying an explicit cell
// list (SweepRequest.Cells — a shard's subset of a grid is never a
// clean workloads × modes product). The per-shard NDJSON streams are
// merged in completion order into a single client stream, ending in
// one done:true summary. The merge deduplicates by cell identity, so
// the client sees every cell exactly once regardless of shard
// failures.
//
// # Failure handling
//
// Each shard has a circuit breaker (closed → open on any failure;
// open → half-open on a probe success; half-open → closed on a second
// success) driven by both request outcomes and a background /v1/healthz
// prober. Transport failures and shard drains reroute the affected
// cells to the next shard in the key's ring order; semantic failures
// (4xx, 500, 504) never reroute — cells are deterministic, so another
// shard would answer identically, and a 4xx must never be retried.
// Rerouted cells arrive flagged rerouted:true with their serving
// shard in shard:, and the summary counts them.
//
// The gateway declares no routes: it serves serve.Frontend's one route
// table. Jobs and telemetry rooms are shard-scoped resources (a WAL and
// an in-memory broadcast live on exactly one shard), so the gateway
// installs no job manager and no room registry, and the shared handlers
// answer their routes with 404 not_found, saying where they are served.
//
// See OPERATIONS.md at the repository root for the operator's
// handbook: topologies, flag reference, failure modes, and drain
// ordering.
package cluster
