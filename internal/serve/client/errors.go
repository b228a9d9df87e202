package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve/apitypes"
)

// Sentinel errors for the API's closed set of envelope codes. Every
// *APIError unwraps to exactly one of them, so callers dispatch with
// errors.Is and never string-match a message:
//
//	if errors.Is(err, client.ErrNotFound) { … }
var (
	// ErrBackpressure: the server's queue is full (429, code
	// "backpressure"). Retryable; the APIError carries Retry-After.
	ErrBackpressure = errors.New("client: server backpressure")
	// ErrDraining: the server is shutting down (503, code "draining").
	// Retryable — against a restarting daemon the next attempt may land
	// on the new process.
	ErrDraining = errors.New("client: server draining")
	// ErrNotFound: no such resource (404, code "not_found") — an unknown
	// job id, a GC'd job, or job endpoints on a daemon without -jobs-dir.
	ErrNotFound = errors.New("client: not found")
	// ErrTimeout: the server gave up at the request's deadline (504,
	// code "timeout").
	ErrTimeout = errors.New("client: server-side timeout")
	// ErrBadRequest: the request is malformed or names unknown
	// workloads/modes (400, code "bad_request"). Never retryable.
	ErrBadRequest = errors.New("client: bad request")
	// ErrCanceled: the server observed the client hang up (499, code
	// "canceled"). Rarely seen by a live client.
	ErrCanceled = errors.New("client: request canceled")
	// ErrInternal: the simulation failed server-side (500, code
	// "internal").
	ErrInternal = errors.New("client: internal server error")
	// ErrGone: a watch resume point fell out of the room's retained
	// history (410, code "gone"). Never retryable — the missed frames
	// are unrecoverable; re-attach with from=0 for the retained tail.
	ErrGone = errors.New("client: resume point gone")
	// ErrTraceNotFound: a trace digest the shard's store does not hold
	// (404, code "trace_not_found"). Recoverable by re-uploading the
	// blob — the imtgw gateway does this automatically.
	ErrTraceNotFound = errors.New("client: trace not found")
	// ErrTraceQuota: a trace upload exceeds the store quota and eviction
	// could not make room (413, code "trace_quota"). Not retryable until
	// traces are deleted or the quota is raised.
	ErrTraceQuota = errors.New("client: trace store over quota")
	// ErrTraceInUse: DELETE refused because the trace is pinned by a
	// running replay or referenced by a queued job (409, code
	// "trace_in_use"). Retry after the job or replay finishes.
	ErrTraceInUse = errors.New("client: trace in use")
)

// APIError is a non-2xx response from the server: the HTTP status, the
// envelope's machine-readable code and human-readable message, and the
// server's backoff hint when it sent one.
type APIError struct {
	StatusCode int
	// Code is the envelope code ("backpressure", "not_found", …); empty
	// for a body that is not the envelope (Unwrap then classifies by
	// status).
	Code    string
	Message string
	// RetryAfter is the server's backoff hint (0 when absent), from the
	// Retry-After header or the envelope's retry_after_ms.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	code := e.Code
	if code == "" {
		code = http.StatusText(e.StatusCode)
	}
	return fmt.Sprintf("serve: %d %s: %s", e.StatusCode, code, e.Message)
}

// Unwrap maps the envelope code (falling back to the HTTP status) onto
// the sentinel table, making errors.Is(err, client.ErrX) work across
// wrapping.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case apitypes.CodeBackpressure:
		return ErrBackpressure
	case apitypes.CodeDraining:
		return ErrDraining
	case apitypes.CodeNotFound:
		return ErrNotFound
	case apitypes.CodeTimeout:
		return ErrTimeout
	case apitypes.CodeBadRequest:
		return ErrBadRequest
	case apitypes.CodeCanceled:
		return ErrCanceled
	case apitypes.CodeInternal:
		return ErrInternal
	case apitypes.CodeGone:
		return ErrGone
	case apitypes.CodeTraceNotFound:
		return ErrTraceNotFound
	case apitypes.CodeTraceQuota:
		return ErrTraceQuota
	case apitypes.CodeTraceInUse:
		return ErrTraceInUse
	}
	// No (or unknown) code: a proxy's error page. Classify by status so
	// Retryable and errors.Is still behave.
	switch e.StatusCode {
	case http.StatusTooManyRequests:
		return ErrBackpressure
	case http.StatusServiceUnavailable:
		return ErrDraining
	case http.StatusNotFound:
		return ErrNotFound
	case http.StatusGatewayTimeout:
		return ErrTimeout
	case http.StatusBadRequest:
		return ErrBadRequest
	case http.StatusGone:
		return ErrGone
	case http.StatusRequestEntityTooLarge:
		return ErrTraceQuota
	case http.StatusConflict:
		return ErrTraceInUse
	}
	return ErrInternal
}

// Retryable reports whether the error is backpressure the client
// should retry (queue full, draining).
func (e *APIError) Retryable() bool {
	err := e.Unwrap()
	return err == ErrBackpressure || err == ErrDraining
}

// apiError turns a non-2xx response into an *APIError. It parses the
// uniform envelope {"error":{"code","message","retry_after_ms"}},
// falls back to the raw body (a proxy's error page; the status then
// classifies it), and honors the Retry-After header (seconds form) as
// well as the envelope's retry_after_ms.
func apiError(resp *http.Response) error {
	e := &APIError{StatusCode: resp.StatusCode}
	if blob, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10)); err == nil {
		var envelope apitypes.ErrorResponse
		if json.Unmarshal(blob, &envelope) == nil && envelope.Error.Code != "" {
			e.Code = envelope.Error.Code
			e.Message = envelope.Error.Message
			if envelope.Error.RetryAfterMs > 0 {
				e.RetryAfter = time.Duration(envelope.Error.RetryAfterMs) * time.Millisecond
			}
		} else {
			e.Message = strings.TrimSpace(string(blob))
		}
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			if d := time.Duration(secs) * time.Second; d > e.RetryAfter {
				e.RetryAfter = d
			}
		}
	}
	return e
}
