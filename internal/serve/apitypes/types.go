package apitypes

import (
	"repro/internal/gpusim"
)

// MaxRequestBytes caps how much of a request body a decoder reads.
// Everything the API accepts fits comfortably in 1 MiB; a hostile
// Content-Length or an endless body cannot make either side allocate
// more than this (the FuzzServeRequestDecode contract).
const MaxRequestBytes = 1 << 20

// SimRequest asks for one simulation cell: a catalog workload under one
// tagging mode. It is the unit the server coalesces and caches.
type SimRequest struct {
	// Workload is a catalog workload name (GET /v1/workloads lists them).
	Workload string `json:"workload"`
	// Mode is a tagging-mode spelling accepted by gpusim.ParseTagMode:
	// none, imt, ecc-steal, carve-out, carve-low, carve-high, carve-mte,
	// bounds-table (alias: bounds).
	Mode string `json:"mode"`
	// MaxCycles caps the simulation (0 = the simulator's default guard).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// SampleInterval, when nonzero, records phase telemetry into the
	// result's stats.Samples every N cycles.
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	// TimeoutMs bounds the request's wall time (0 = the server default;
	// values above the server maximum are clamped). An exceeded deadline
	// returns 504.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Watch opens a telemetry room for the cell and returns its join
	// code in the result's WatchRoom. Telemetry requires sampling, so a
	// zero SampleInterval is raised to the server's watch default.
	Watch bool `json:"watch,omitempty"`
}

// SweepRequest asks for a grid of cells, expanded server-side:
// (workloads ∪ suite) × modes, plus any explicitly listed Cells.
// POSTed to /v1/sweep the results stream back synchronously as NDJSON;
// wrapped in a JobRequest the same grid runs as a durable background
// job.
type SweepRequest struct {
	// Workloads names individual catalog workloads.
	Workloads []string `json:"workloads,omitempty"`
	// Suite adds every workload of a catalog suite (MLPerf, HPC+SLA,
	// STREAM). Workloads and Suite may be combined.
	Suite string `json:"suite,omitempty"`
	// Modes lists tagging modes; the grid is workloads × modes.
	Modes []string `json:"modes,omitempty"`
	// Cells names explicit cells, appended to (and deduplicated against)
	// the workloads × modes product. A sweep may consist of Cells alone —
	// this is how the imtgw gateway scatters an arbitrary subset of a
	// grid to one shard, which is never a clean product.
	Cells []CellRef `json:"cells,omitempty"`
	// MaxCycles / SampleInterval apply to every cell. TimeoutMs bounds
	// the whole sweep for /v1/sweep (0 = the server maximum); for a job
	// it bounds each cell instead, since a job's lifetime is unbounded.
	MaxCycles      uint64 `json:"max_cycles,omitempty"`
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	TimeoutMs      int64  `json:"timeout_ms,omitempty"`
	// Watch opens a telemetry room covering every cell of the grid. For
	// /v1/sweep the join code rides in the X-Watch-Room response header
	// (available before the stream starts) and is echoed in the final
	// SweepSummary; for a job it rides in the 202 JobInfo. A zero
	// SampleInterval is raised to the server's watch default.
	Watch bool `json:"watch,omitempty"`
}

// CellResult is one completed (or failed) cell. In a sweep stream,
// failed cells carry Error and no Stats; the stream keeps going.
type CellResult struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	// Cached reports that the result came from the on-disk cache (either
	// the server's pre-admission fast path or the engine's own lookup).
	Cached bool `json:"cached,omitempty"`
	// Coalesced reports that this request shared another in-flight
	// request's simulation instead of running its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// CacheKey is a prefix of the cell's content-addressed identity —
	// enough to correlate coalesced requests and cache entries in logs.
	CacheKey  string        `json:"cache_key,omitempty"`
	ElapsedMs float64       `json:"elapsed_ms"`
	Error     string        `json:"error,omitempty"`
	Stats     *gpusim.Stats `json:"stats,omitempty"`
	// WatchRoom is the telemetry room's join code when the request set
	// watch:true (GET /v1/watch/{room} replays and follows it).
	WatchRoom string `json:"watch_room,omitempty"`
	// Shard is the imtd shard that served the cell, annotated by the
	// imtgw gateway (absent on single-node responses).
	Shard string `json:"shard,omitempty"`
	// Rerouted marks a cell the gateway moved off its ring-preferred
	// shard — because that shard's stream failed mid-sweep or its
	// breaker was open when the cell was routed.
	Rerouted bool `json:"rerouted,omitempty"`
}

// SweepSummary is the final NDJSON line of a /v1/sweep stream.
type SweepSummary struct {
	Done      bool `json:"done"`
	Cells     int  `json:"cells"`
	Failed    int  `json:"failed"`
	Cached    int  `json:"cached"`
	Coalesced int  `json:"coalesced"`
	// Rerouted counts cells a gateway moved to another shard after
	// their assigned shard failed mid-sweep (always 0 single-node).
	Rerouted int `json:"rerouted,omitempty"`
	// Shards counts the distinct shards that served cells of this sweep
	// (0 on single-node responses).
	Shards    int     `json:"shards,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// WatchRoom echoes the telemetry room's join code when the request
	// set watch:true (also sent early in the X-Watch-Room header).
	WatchRoom string `json:"watch_room,omitempty"`
}

// WorkloadInfo is one catalog entry in the GET /v1/workloads listing.
type WorkloadInfo struct {
	Name           string `json:"name"`
	Suite          string `json:"suite"`
	Pattern        string `json:"pattern"`
	FootprintBytes uint64 `json:"footprint_bytes"`
}

// CatalogResponse is the GET /v1/workloads body.
type CatalogResponse struct {
	Workloads []WorkloadInfo `json:"workloads"`
	Suites    []string       `json:"suites"`
	Modes     []string       `json:"modes"`
}

// StatsSnapshot is the GET /v1/statsz body: the server's own activity
// counters, the load generator's source of truth for coalesce and
// cache-hit assertions. Jobs is present only when the job queue is
// enabled.
type StatsSnapshot struct {
	Requests     uint64  `json:"requests"`
	Cells        uint64  `json:"cells"`
	CacheHits    uint64  `json:"cache_hits"`
	CoalesceHits uint64  `json:"coalesce_hits"`
	Rejected     uint64  `json:"rejected"`
	Timeouts     uint64  `json:"timeouts"`
	Errors       uint64  `json:"errors"`
	Inflight     int64   `json:"inflight"`
	QueueDepth   int64   `json:"queue_depth"`
	Draining     bool    `json:"draining"`
	UptimeMs     float64 `json:"uptime_ms"`
	// UptimeSeconds duplicates UptimeMs in seconds for human readers and
	// dashboards that bucket on seconds.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// ConfigHash / GoVersion / VCSRevision / VCSModified identify the
	// build and simulator configuration a watcher is observing; they
	// mirror the run manifest's identity fields.
	ConfigHash  string     `json:"config_hash,omitempty"`
	GoVersion   string     `json:"go_version,omitempty"`
	VCSRevision string     `json:"vcs_revision,omitempty"`
	VCSModified bool       `json:"vcs_modified,omitempty"`
	Jobs        *JobStats  `json:"jobs,omitempty"`
	Rooms       *RoomStats `json:"rooms,omitempty"`
	// Traces is present only when the trace store is enabled
	// (-trace-dir); on a gateway it aggregates every reachable shard.
	Traces *TraceStoreStats `json:"traces,omitempty"`
}

// RoomStats is the telemetry-room section of StatsSnapshot, mirroring
// the serve_rooms_* registry metrics.
type RoomStats struct {
	// Open and Subscribers are current gauges.
	Open        int64 `json:"open"`
	Subscribers int64 `json:"subscribers"`
	// Frames and Drops are lifetime totals: frames published into rooms
	// and subscribers evicted for falling behind.
	Frames uint64 `json:"frames_total"`
	Drops  uint64 `json:"drops_total"`
}

// JobStats is the job-queue section of StatsSnapshot.
type JobStats struct {
	// Queued and Running count jobs currently in those states.
	Queued  int64 `json:"queued"`
	Running int64 `json:"running"`
	// Submitted..Canceled are lifetime totals since daemon start.
	Submitted uint64 `json:"submitted"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	// ResumedJobs counts jobs that were non-terminal in the WAL at
	// daemon start and were re-enqueued.
	ResumedJobs uint64 `json:"resumed_jobs"`
	// Cells counts job cells completed this daemon lifetime;
	// CellsResumed counts cells recovered without recompute after a
	// restart (replayed WAL markers plus cache hits inside resumed
	// jobs); CellsFailed counts cells that finished with an error.
	Cells        uint64 `json:"cells"`
	CellsResumed uint64 `json:"cells_resumed"`
	CellsFailed  uint64 `json:"cells_failed"`
	// WALBytes is the current size of the job write-ahead log.
	WALBytes int64 `json:"wal_bytes"`
}

// CellRef names one cell of a job's grid: a catalog workload under one
// tagging mode. The job-wide MaxCycles/SampleInterval knobs ride on the
// job's SweepRequest.
type CellRef struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
}

// TraceInfo describes one stored trace: the resource body of
// GET /v1/traces/{digest} and DELETE /v1/traces/{digest}, and a row of
// the list response. Digest is the SHA-256 of the IMTTRC blob — the
// trace's content address and the spelling after "trace:" in workload
// names.
type TraceInfo struct {
	Digest   string `json:"digest"`
	Bytes    int64  `json:"bytes"`
	NumSMs   int    `json:"num_sms"`
	TotalOps uint64 `json:"total_ops"`
	// CreatedUnixMs is when the blob was first committed; LastUsedUnixMs
	// advances on re-upload and replay and drives LRU eviction.
	CreatedUnixMs  int64 `json:"created_unix_ms"`
	LastUsedUnixMs int64 `json:"last_used_unix_ms"`
}

// TraceUploadResponse is the POST /v1/traces body. Created
// distinguishes a fresh commit (201) from a content-address hit on a
// blob the store already held (200) — re-uploading is always safe and
// never re-spills the blob.
type TraceUploadResponse struct {
	TraceInfo
	Created bool `json:"created"`
}

// TraceListResponse is the GET /v1/traces body. Traces is sorted by
// digest; QuotaBytes is 0 when the store is unbounded.
type TraceListResponse struct {
	Traces     []TraceInfo `json:"traces"`
	TotalBytes int64       `json:"total_bytes"`
	QuotaBytes int64       `json:"quota_bytes,omitempty"`
}

// TraceStoreStats is the trace-store section of StatsSnapshot,
// mirroring the tracestore_* registry metrics.
type TraceStoreStats struct {
	// Blobs and Bytes are current gauges; QuotaBytes is the configured
	// cap (0 = unbounded).
	Blobs      int64 `json:"blobs"`
	Bytes      int64 `json:"bytes"`
	QuotaBytes int64 `json:"quota_bytes,omitempty"`
	// Puts..Deletes are lifetime totals since daemon start. PutHits
	// counts uploads that content-addressed an existing blob; Rejected
	// counts uploads refused (invalid stream or over quota); Evictions
	// counts LRU evictions making room for new uploads.
	Puts      uint64 `json:"puts"`
	PutHits   uint64 `json:"put_hits"`
	Rejected  uint64 `json:"rejected"`
	Evictions uint64 `json:"evictions"`
	Deletes   uint64 `json:"deletes"`
}

// JobRequest is the POST /v1/jobs body: a sweep grid to run as a
// durable background job. The embedded SweepRequest fields appear
// inline on the wire.
type JobRequest struct {
	// Tenant is the fairness bucket the job is scheduled under; jobs of
	// different tenants are started round-robin. Empty means the
	// "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	SweepRequest
}

// JobState is a job's lifecycle state. The state machine is
//
//	queued → running → done | failed
//	queued | running → canceled
//
// with running → queued again across a daemon restart (the job is
// re-enqueued and its Resumed flag set).
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final (done, failed, canceled).
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobInfo is the job resource: the POST /v1/jobs response and the
// GET /v1/jobs/{id} body.
type JobInfo struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant"`
	State  JobState `json:"state"`
	// Sweep echoes the grid the job runs.
	Sweep SweepRequest `json:"sweep"`
	// Cells is the expanded grid size; DoneCells counts completed frames
	// (including failed cells); FailedCells the subset that failed;
	// ResumedCells the frames recovered without recompute after a
	// restart.
	Cells        int `json:"cells"`
	DoneCells    int `json:"done_cells"`
	FailedCells  int `json:"failed_cells"`
	ResumedCells int `json:"resumed_cells"`
	// Resumed reports that the job survived at least one daemon restart.
	Resumed bool `json:"resumed,omitempty"`
	// Error is set when State is failed.
	Error           string `json:"error,omitempty"`
	SubmittedUnixMs int64  `json:"submitted_unix_ms"`
	StartedUnixMs   int64  `json:"started_unix_ms,omitempty"`
	FinishedUnixMs  int64  `json:"finished_unix_ms,omitempty"`
	// WatchRoom is the telemetry room's join code when the job was
	// submitted with watch:true. Rooms are in-memory: the field is
	// present while the daemon that accepted the job is alive and the
	// room has not expired; it does not survive a restart.
	WatchRoom string `json:"watch_room,omitempty"`
}

// JobListResponse is the GET /v1/jobs body.
type JobListResponse struct {
	Jobs []JobInfo `json:"jobs"`
}

// JobFrame is one line of a GET /v1/jobs/{id}/stream NDJSON stream:
// cell results in completion order, numbered by a per-job sequence that
// is stable across daemon restarts. Re-attaching with ?from=N yields
// frames N, N+1, … with no gaps and no duplicates.
type JobFrame struct {
	Seq int `json:"seq"`
	// Resumed marks a frame recovered without recompute after a daemon
	// restart (WAL replay or cache hit inside a resumed job).
	Resumed bool       `json:"resumed,omitempty"`
	Cell    CellResult `json:"cell"`
}

// GatewaySnapshot is the imtgw gateway's GET /v1/statsz body: the
// embedded StatsSnapshot aggregates the counters of every reachable
// shard (so fleet-unaware tooling like imtload keeps working when
// pointed at a gateway), Gateway carries the gateway's own routing
// counters, and Shards is the per-shard breakdown.
type GatewaySnapshot struct {
	StatsSnapshot
	Gateway *GatewayStats   `json:"gateway,omitempty"`
	Shards  []ShardSnapshot `json:"shards,omitempty"`
}

// GatewayStats is the gateway's own activity: requests it routed and
// cells it delivered (as opposed to the aggregated shard counters).
type GatewayStats struct {
	Requests uint64 `json:"requests"`
	Cells    uint64 `json:"cells"`
	// Rerouted counts cells moved to another shard after a transport
	// failure or drain; ShardErrors counts the underlying shard
	// stream/request failures that caused rerouting.
	Rerouted    uint64 `json:"rerouted"`
	ShardErrors uint64 `json:"shard_errors"`
	// BreakerOpens counts closed/half-open → open transitions across the
	// fleet since gateway start.
	BreakerOpens uint64 `json:"breaker_opens"`
	// ShardsUp / ShardsTotal summarize fleet health (up = breaker not
	// open).
	ShardsUp    int `json:"shards_up"`
	ShardsTotal int `json:"shards_total"`
}

// Breaker states as rendered in ShardSnapshot.Breaker. A closed
// breaker routes normally; an open one is excluded from routing until
// a background health probe succeeds (→ half-open, tentatively
// routable); a second consecutive success closes it.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// ShardSnapshot is one shard's row in a GatewaySnapshot.
type ShardSnapshot struct {
	// Shard is the shard's base URL as configured on the gateway.
	Shard string `json:"shard"`
	// Breaker is the shard's breaker state (Breaker* constants).
	Breaker string `json:"breaker"`
	// Rerouted counts cells moved *away* from this shard.
	Rerouted uint64 `json:"rerouted"`
	// Error is set when the shard's /v1/statsz could not be fetched;
	// Stats is then nil and the shard is excluded from the aggregate.
	Error string         `json:"error,omitempty"`
	Stats *StatsSnapshot `json:"stats,omitempty"`
}

// JobStreamSummary is the final NDJSON line of a job stream. Done is
// true when the job reached a terminal state; a Draining summary ends
// the stream early because the daemon is shutting down — re-attach with
// ?from=NextSeq (the client library's FollowJob does this
// automatically).
type JobStreamSummary struct {
	Done     bool     `json:"done"`
	State    JobState `json:"state"`
	Cells    int      `json:"cells"`
	Failed   int      `json:"failed"`
	Resumed  int      `json:"resumed"`
	NextSeq  int      `json:"next_seq"`
	Draining bool     `json:"draining,omitempty"`
}
