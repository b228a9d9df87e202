// Package client is the Go client for the imtd simulation service
// (internal/serve): typed wrappers over the JSON API with the retry
// discipline a backpressured server expects — 429/503 responses are
// retried honoring the server's Retry-After floor, transient transport
// failures are retried with jittered exponential backoff, and 400/500
// class semantic failures are returned immediately.
//
// Server failures surface as *APIError carrying the uniform error
// envelope's code, and errors.Is matches the typed sentinels
// (ErrBackpressure, ErrDraining, ErrNotFound, ErrTimeout,
// ErrBadRequest, ErrCanceled, ErrInternal).
//
// Streams follow one attach rule. A sweep (Sweep, SweepWatch), a job
// stream (StreamJob) and a watch (Watch) retry their request only until
// a 200 arrives; the body is then read exactly once — NDJSON sweeps and
// job streams by one shared reader that delivers each line to a
// callback as it arrives, watches by the SSE reader. A stream cut after
// its 200 is therefore an error, never a second request from the same
// position, so no line is delivered twice.
//
// For durable jobs, SubmitJob/Job/Jobs/CancelJob wrap the /v1/jobs
// resource. FollowJob and FollowWatch share one re-attach loop: it
// returns on a done summary (or one that is neither done nor
// draining), resumes after a drain summary at its next_seq, re-attaches
// after a retryable error at the next undelivered sequence — each after
// the client's backoff — and stops when ctx ends or on a non-retryable
// error. Every frame is delivered exactly once, in order, across server
// drains, restarts and transport failures: the client half of the job
// queue's crash-recovery contract. cmd/imtload builds its load
// generator and job driver on this package.
package client
