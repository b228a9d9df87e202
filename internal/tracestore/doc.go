// Package tracestore is the content-addressed, crash-safe on-disk home
// of uploaded simulation traces.
//
// A trace's identity is the SHA-256 hex digest of its IMTTRC bytes, so
// re-uploading the same trace is a metadata touch, the runner cache key
// for a trace-backed cell can incorporate the digest (routing = cache
// affinity across a cluster), and two tenants uploading the same trace
// share one blob.
//
// On disk a store directory holds three areas:
//
//	dir/tmp/                      in-flight uploads (wiped on Open)
//	dir/blobs/<dg[:2]>/<dg>.trc   committed trace bytes
//	dir/meta/<dg>.json            sidecar: byte-level TraceIndex + info
//
// Every change to these files goes through durable.FS, blob first for
// commits and deletes alike, and a delete fsyncs each directory it
// removes from. Every crash state is recoverable on the next Open: a
// temp file is garbage (an upload or sidecar that never finished), a
// blob without meta is a validated trace whose sidecar write was
// interrupted (re-indexed and resurrected), and a meta without blob is
// an interrupted delete (removed). No partially written trace is ever
// visible under blobs/, and a delete that returned survives power loss.
//
// Uploads stream: Put validates the bytes with gpusim.IndexTraceStream
// while hashing and spilling them to the temp file, so a multi-GB trace
// costs one op-chunk of memory. Replays stream too: OpenReplay pins the
// blob (refcount against concurrent delete and eviction) and serves
// per-SM traces straight off the file via section readers.
//
// Capacity is a byte quota with LRU eviction (least-recently-used blob
// first, judged by blob mtime, which Put and OpenReplay touch) plus a
// TTL sweep; pinned blobs and blobs the InUse callback claims (e.g.
// referenced by a queued job) are never evicted or deleted.
package tracestore
