// Package jobs is the durable asynchronous job subsystem behind imtd's
// /v1/jobs API: a persistent on-disk store of sweep jobs plus a
// tenant-fair scheduler, built so queued and in-flight sweeps survive
// daemon restart.
//
// # Store
//
// The Store is an append-only write-ahead log (wal.log) of one JSON
// record per line: job submissions (the full expanded grid), state
// transitions, per-cell completion markers carrying the cell's result,
// and GC tombstones. State transitions are fsynced; completion markers
// are written straight through (durable against process death — only a
// machine crash can lose the tail, and a lost marker merely costs one
// cache-hit recompute on resume). The log is a durable.Log: an append
// that fails is cut back to the last whole record before the error
// returns, so no later record lands behind torn bytes, and a log that
// cannot be cut back closes the store. On Open the log is replayed into
// the in-memory job table; a torn final record (the write the crash
// interrupted) is truncated away, corruption anywhere earlier is
// refused, and a crashed compaction's temp files are removed.
// Compaction rewrites the log from live state (a durable.FS commit)
// whenever GC has removed jobs, so the WAL does not grow without bound.
//
// # Resume semantics
//
// Replay restores every job exactly as recorded. Non-terminal jobs that
// had frames — or were mid-run — are marked Resumed and re-enqueued;
// their replayed frames keep their sequence numbers, so an attached
// stream can resume from any per-cell sequence number across restarts.
// When a resumed job re-executes, only cells without completion markers
// run, and those typically resolve from the runner's content-addressed
// result cache (the serving layer's cache fast path on runner.CacheKeyFor)
// rather than recomputing; such cells are counted as resumed too. The
// conformance invariant "cache hit == recompute" is what makes a
// resumed result set bit-identical to an uninterrupted run.
//
// # Scheduler
//
// The Manager starts up to JobWorkers jobs concurrently, picking the
// next job round-robin across tenants (lexicographic tenant order,
// cursor after the last-served tenant) so one tenant's backlog cannot
// starve another's. A job's pending cells go to the serving layer's
// RunCells callback in one call, which runs them as one executor sweep:
// the sweep's worker pool bounds a job's cells, and they take the same
// admission control, coalescing and cache as interactive requests. The
// manager records each cell the callback emits as a frame. Finished
// jobs older than TTL are garbage collected and the WAL compacted.
package jobs
