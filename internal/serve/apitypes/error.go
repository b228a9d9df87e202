package apitypes

// Error codes: the closed set a /v1 client may dispatch on. The HTTP
// status is advisory (proxies rewrite statuses; codes survive).
const (
	// CodeBadRequest (400): malformed JSON, unknown field, unknown
	// workload/suite/mode, empty grid, grid larger than the sweep cap.
	CodeBadRequest = "bad_request"
	// CodeNotFound (404): no such job, no such room (never created, or
	// expired after close), or the job queue is disabled.
	CodeNotFound = "not_found"
	// CodeGone (410): the requested resume point has been evicted from a
	// room's bounded history; re-attach with a later ?from (or 0 for
	// whatever is still retained).
	CodeGone = "gone"
	// CodeBackpressure (429): the admission queue is full; retry after
	// the hinted delay.
	CodeBackpressure = "backpressure"
	// CodeDraining (503): the daemon is shutting down; retry against a
	// restarted daemon.
	CodeDraining = "draining"
	// CodeTimeout (504): the request's deadline elapsed server-side.
	CodeTimeout = "timeout"
	// CodeCanceled (499): the client went away mid-request.
	CodeCanceled = "canceled"
	// CodeInternal (500): simulation failure (config rejected, simulator
	// error, panic).
	CodeInternal = "internal"
	// CodeTraceNotFound (404): a trace:<digest> workload names a digest
	// this daemon's trace store does not hold (or the store is
	// disabled). Distinct from CodeNotFound so a gateway can react by
	// re-uploading the blob to the shard and retrying.
	CodeTraceNotFound = "trace_not_found"
	// CodeTraceQuota (413): a trace upload exceeds the store quota and
	// eviction could not make room (every resident blob is pinned or
	// job-referenced, or the upload alone is larger than the quota).
	CodeTraceQuota = "trace_quota"
	// CodeTraceInUse (409): DELETE refused because the trace is pinned
	// by a running replay or referenced by a queued job.
	CodeTraceInUse = "trace_in_use"
	// CodeStorage (507): the server's disk failed: it is full or over
	// quota (ENOSPC, EDQUOT), or an I/O error (EIO). The request itself
	// was fine and nothing was committed; retry once the disk is fixed.
	CodeStorage = "storage_error"
)

// ErrorBody is the payload of the uniform error envelope.
type ErrorBody struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable detail; clients must not dispatch on it.
	Message string `json:"message"`
	// RetryAfterMs, when nonzero, is the server's backoff hint — the
	// JSON twin of the Retry-After header, for callers that never see
	// headers (log pipelines, NDJSON consumers).
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// ErrorResponse is the body of every non-200 API response:
// {"error":{"code":"...","message":"...","retry_after_ms":...}}.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}
