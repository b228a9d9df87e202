package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/serve/apitypes"
)

func frame(seq int, workload string, resumed bool) apitypes.JobFrame {
	return apitypes.JobFrame{
		Seq:     seq,
		Resumed: resumed,
		Cell: apitypes.CellResult{
			Workload: workload, Mode: "imt",
			Stats: &gpusim.Stats{Cycles: uint64(100 + seq), WarpOps: 1},
		},
	}
}

// TestTypedErrors: every envelope code maps to its sentinel via
// errors.Is, and a body that is not the envelope (such as a bare
// {"error":"msg"}) falls back to the raw body and classifies by status.
func TestTypedErrors(t *testing.T) {
	cases := []struct {
		name      string
		status    int
		body      string
		sentinel  error
		retryable bool
	}{
		{"backpressure", 429, `{"error":{"code":"backpressure","message":"queue full","retry_after_ms":1000}}`, ErrBackpressure, true},
		{"draining", 503, `{"error":{"code":"draining","message":"bye"}}`, ErrDraining, true},
		{"not_found", 404, `{"error":{"code":"not_found","message":"no such job"}}`, ErrNotFound, false},
		{"timeout", 504, `{"error":{"code":"timeout","message":"deadline"}}`, ErrTimeout, false},
		{"bad_request", 400, `{"error":{"code":"bad_request","message":"bad mode"}}`, ErrBadRequest, false},
		{"internal", 500, `{"error":{"code":"internal","message":"sim failed"}}`, ErrInternal, false},
		{"storage_error", 507, `{"error":{"code":"storage_error","message":"no space left on device"}}`, ErrStorage, false},
		{"bare 507", 507, `insufficient storage`, ErrStorage, false},
		{"legacy body", 429, `{"error":"queue full"}`, ErrBackpressure, true},
		{"non-json body", 503, `service unavailable`, ErrDraining, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				fmt.Fprint(w, tc.body)
			}))
			defer srv.Close()
			c := New(srv.URL)
			c.MaxRetries = 0
			_, err := c.Job(context.Background(), "j-x")
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("err = %v, want *APIError", err)
			}
			if apiErr.StatusCode != tc.status || apiErr.Retryable() != tc.retryable {
				t.Errorf("APIError = %+v, want status %d retryable %v", apiErr, tc.status, tc.retryable)
			}
		})
	}
}

// TestRetryAfterFromEnvelope: retry_after_ms in the body surfaces even
// without a Retry-After header, and the header wins when larger.
func TestRetryAfterFromEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(429)
		json.NewEncoder(w).Encode(apitypes.ErrorResponse{Error: apitypes.ErrorBody{
			Code: apitypes.CodeBackpressure, Message: "full", RetryAfterMs: 1500,
		}})
	}))
	defer srv.Close()
	c := New(srv.URL)
	c.MaxRetries = 0
	_, err := c.Job(context.Background(), "j-x")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.RetryAfter != 1500*time.Millisecond {
		t.Fatalf("err = %+v, want RetryAfter=1.5s", err)
	}
}

// TestSubmitPollCancel drives the basic job verbs against a scripted
// server.
func TestSubmitPollCancel(t *testing.T) {
	var canceled atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req apitypes.JobRequest
		json.NewDecoder(r.Body).Decode(&req)
		if req.Tenant != "alice" || req.Suite != "STREAM" {
			t.Errorf("server saw %+v", req)
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(apitypes.JobInfo{ID: "j-1", Tenant: req.Tenant, State: apitypes.JobQueued, Cells: 3})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		state := apitypes.JobRunning
		if canceled.Load() {
			state = apitypes.JobCanceled
		}
		json.NewEncoder(w).Encode(apitypes.JobInfo{ID: r.PathValue("id"), State: state})
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		canceled.Store(true)
		json.NewEncoder(w).Encode(apitypes.JobInfo{ID: r.PathValue("id"), State: apitypes.JobCanceled})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := fastClient(srv.URL)
	ctx := context.Background()

	info, err := c.SubmitJob(ctx, apitypes.JobRequest{Tenant: "alice", SweepRequest: apitypes.SweepRequest{Suite: "STREAM", Modes: []string{"imt"}}})
	if err != nil || info.ID != "j-1" {
		t.Fatalf("submit: %+v %v", info, err)
	}
	if got, err := c.Job(ctx, "j-1"); err != nil || got.State != apitypes.JobRunning {
		t.Fatalf("poll: %+v %v", got, err)
	}
	if got, err := c.CancelJob(ctx, "j-1"); err != nil || got.State != apitypes.JobCanceled {
		t.Fatalf("cancel: %+v %v", got, err)
	}
	if got, err := c.WaitJob(ctx, "j-1", time.Millisecond); err != nil || got.State != apitypes.JobCanceled {
		t.Fatalf("wait: %+v %v", got, err)
	}
}

// TestFollowJobReconnects is the attach/detach contract: the first
// stream ends with a draining summary, the second attach must come in
// at NextSeq, deliver the rest exactly once, and return the terminal
// summary — the client-side half of surviving a daemon restart.
func TestFollowJobReconnects(t *testing.T) {
	var attach atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		switch n := attach.Add(1); n {
		case 1:
			if r.URL.Query().Get("from") != "0" {
				t.Errorf("first attach from=%s", r.URL.Query().Get("from"))
			}
			enc.Encode(frame(0, "a", false))
			enc.Encode(frame(1, "b", false))
			enc.Encode(apitypes.JobStreamSummary{Done: false, State: apitypes.JobRunning, Cells: 3, NextSeq: 2, Draining: true})
		default:
			if r.URL.Query().Get("from") != "2" {
				t.Errorf("reattach from=%s, want 2", r.URL.Query().Get("from"))
			}
			enc.Encode(frame(2, "c", true))
			enc.Encode(apitypes.JobStreamSummary{Done: true, State: apitypes.JobDone, Cells: 3, Resumed: 2, NextSeq: 3})
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var got []apitypes.JobFrame
	summary, err := fastClient(srv.URL).FollowJob(context.Background(), "j-1", 0, func(f apitypes.JobFrame) error {
		got = append(got, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Seq != 0 || got[1].Seq != 1 || got[2].Seq != 2 {
		t.Fatalf("frames = %+v", got)
	}
	if !summary.Done || summary.State != apitypes.JobDone {
		t.Fatalf("summary = %+v", summary)
	}
	if attach.Load() != 2 {
		t.Errorf("attaches = %d, want 2", attach.Load())
	}
}

// TestFollowJobSurvivesTransportErrors: connection failures between
// attaches retry rather than abort (the daemon is mid-restart).
func TestFollowJobSurvivesTransportErrors(t *testing.T) {
	var attach atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		switch attach.Add(1) {
		case 1:
			enc.Encode(frame(0, "a", false))
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush() // the frame must reach the wire before the cut
			}
			// Cut the connection mid-stream: no summary line.
			if hj, ok := w.(http.Hijacker); ok {
				conn, _, _ := hj.Hijack()
				conn.Close()
				return
			}
		default:
			from := r.URL.Query().Get("from")
			if from != "1" {
				t.Errorf("reattach from=%s, want 1", from)
			}
			enc.Encode(frame(1, "b", false))
			enc.Encode(apitypes.JobStreamSummary{Done: true, State: apitypes.JobDone, Cells: 2, NextSeq: 2})
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := fastClient(srv.URL)
	c.MaxRetries = 0 // FollowJob's own loop must do the work, not retry()
	var got []apitypes.JobFrame
	summary, err := c.FollowJob(context.Background(), "j-1", 0, func(f apitypes.JobFrame) error {
		got = append(got, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !summary.Done {
		t.Fatalf("frames = %+v summary = %+v", got, summary)
	}
}

// TestFollowJobStopsOnNotFound: a 404 means the job is unknown or
// GC'd; following must fail fast, not spin.
func TestFollowJobStopsOnNotFound(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(404)
		json.NewEncoder(w).Encode(apitypes.ErrorResponse{Error: apitypes.ErrorBody{Code: apitypes.CodeNotFound, Message: "gone"}})
	}))
	defer srv.Close()
	c := fastClient(srv.URL)
	c.MaxRetries = 0
	_, err := c.FollowJob(context.Background(), "j-1", 0, func(apitypes.JobFrame) error { return nil })
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if calls.Load() != 1 {
		t.Errorf("attempts = %d, want 1", calls.Load())
	}
}

// TestFollowJobCutStreamDeliversOnce: the first attach is cut after
// seqs 0-1 with no summary; the next attach is served whole from its
// from. With the default MaxRetries, FollowJob must deliver every seq
// exactly once, in order — the cut stream is never requested again
// from its old position.
func TestFollowJobCutStreamDeliversOnce(t *testing.T) {
	const cells = 4
	var froms []string
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		froms = append(froms, r.URL.Query().Get("from"))
		first := len(froms) == 1
		mu.Unlock()
		enc := json.NewEncoder(w)
		if first {
			enc.Encode(frame(0, "a", false))
			enc.Encode(frame(1, "b", false))
			return // cut: no summary line
		}
		from, _ := strconv.Atoi(r.URL.Query().Get("from"))
		for seq := from; seq < cells; seq++ {
			enc.Encode(frame(seq, fmt.Sprint("w", seq), false))
		}
		enc.Encode(apitypes.JobStreamSummary{Done: true, State: apitypes.JobDone, Cells: cells, NextSeq: cells})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var seqs []int
	summary, err := fastClient(srv.URL).FollowJob(context.Background(), "j-1", 0, func(f apitypes.JobFrame) error {
		seqs = append(seqs, f.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seqs) != "[0 1 2 3]" {
		t.Fatalf("seqs = %v, want [0 1 2 3] exactly once", seqs)
	}
	if !summary.Done {
		t.Errorf("summary = %+v", summary)
	}
	if fmt.Sprint(froms) != "[0 2]" {
		t.Errorf("attaches from %v, want [0 2]", froms)
	}
}

// TestFollowJobFnErrorStops: a callback error is the caller's decision
// to stop, so FollowJob returns it after one attach instead of
// re-attaching to hand the refused frame over again.
func TestFollowJobFnErrorStops(t *testing.T) {
	var attach atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		attach.Add(1)
		enc := json.NewEncoder(w)
		enc.Encode(frame(0, "a", false))
		enc.Encode(frame(1, "b", false))
		enc.Encode(apitypes.JobStreamSummary{Done: true, State: apitypes.JobDone, Cells: 2, NextSeq: 2})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	boom := errors.New("stop here")
	_, err := fastClient(srv.URL).FollowJob(ctx, "j-1", 0, func(f apitypes.JobFrame) error {
		if f.Seq == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if attach.Load() != 1 {
		t.Errorf("attaches = %d, want 1", attach.Load())
	}
}
