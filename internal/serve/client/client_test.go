package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/serve/apitypes"
)

// fastClient returns a client whose backoff is test-sized.
func fastClient(baseURL string) *Client {
	c := New(baseURL)
	c.BaseBackoff = time.Millisecond
	c.MaxBackoff = 5 * time.Millisecond
	return c
}

// TestSimRetriesBackpressure: two 429s then success must cost exactly
// three attempts and return the final result.
func TestSimRetriesBackpressure(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(apitypes.ErrorResponse{Error: apitypes.ErrorBody{Code: apitypes.CodeBackpressure, Message: "queue full"}})
			return
		}
		json.NewEncoder(w).Encode(apitypes.CellResult{
			Workload: "stream-copy-16MB", Mode: "imt",
			Stats: &gpusim.Stats{Cycles: 7},
		})
	}))
	defer srv.Close()

	res, err := fastClient(srv.URL).Sim(context.Background(),
		apitypes.SimRequest{Workload: "stream-copy-16MB", Mode: "imt"})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if res.Stats == nil || res.Stats.Cycles != 7 {
		t.Errorf("result = %+v", res)
	}
}

// TestSimNoRetryOnSemanticFailure: 400 and 504 fail the first attempt
// — retrying a malformed request or a spent deadline is waste.
func TestSimNoRetryOnSemanticFailure(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusInternalServerError, http.StatusGatewayTimeout} {
		t.Run(fmt.Sprint(status), func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.WriteHeader(status)
				json.NewEncoder(w).Encode(apitypes.ErrorResponse{Error: apitypes.ErrorBody{Message: "nope"}})
			}))
			defer srv.Close()

			_, err := fastClient(srv.URL).Sim(context.Background(), apitypes.SimRequest{Workload: "x", Mode: "imt"})
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != status {
				t.Fatalf("err = %v, want APIError %d", err, status)
			}
			if apiErr.Retryable() {
				t.Errorf("%d must not be retryable", status)
			}
			if got := calls.Load(); got != 1 {
				t.Errorf("attempts = %d, want 1", got)
			}
		})
	}
}

// TestRetryAfterParsed: the header's seconds form surfaces on APIError
// and acts as the backoff floor.
func TestRetryAfterParsed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(apitypes.ErrorResponse{Error: apitypes.ErrorBody{Code: apitypes.CodeDraining, Message: "draining"}})
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.MaxRetries = 0 // observe the raw error, no sleeping
	_, err := c.Sim(context.Background(), apitypes.SimRequest{Workload: "x", Mode: "imt"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v", err)
	}
	if apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.RetryAfter != 2*time.Second {
		t.Errorf("APIError = %+v, want 503 with RetryAfter=2s", apiErr)
	}
	if !apiErr.Retryable() {
		t.Error("503 must be retryable")
	}
}

// TestRetryStopsWhenContextEnds: a canceled context ends the retry
// loop instead of sleeping through it.
func TestRetryStopsWhenContextEnds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "30") // would be a long sleep
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := fastClient(srv.URL).Sim(ctx, apitypes.SimRequest{Workload: "x", Mode: "imt"})
		done <- err
	}()
	// Let the first attempt land, then cancel during the backoff sleep.
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first attempt never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop ignored cancellation")
	}
}

// TestSweepStreamParsing: the client must hand every cell line to fn
// in order and return the summary line.
func TestSweepStreamParsing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(apitypes.CellResult{Workload: "a", Mode: "none", Stats: &gpusim.Stats{Cycles: 1}})
		enc.Encode(apitypes.CellResult{Workload: "a", Mode: "imt", Error: "boom"})
		enc.Encode(apitypes.SweepSummary{Done: true, Cells: 2, Failed: 1})
	}))
	defer srv.Close()

	var cells []apitypes.CellResult
	summary, err := New(srv.URL).Sweep(context.Background(), apitypes.SweepRequest{}, func(c apitypes.CellResult) error {
		cells = append(cells, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Mode != "none" || cells[1].Error != "boom" {
		t.Fatalf("cells = %+v", cells)
	}
	if !summary.Done || summary.Cells != 2 || summary.Failed != 1 {
		t.Fatalf("summary = %+v", summary)
	}
}

// TestSweepTruncatedStream: a stream that ends without a summary line
// (server died mid-sweep) is an error, not silent success.
func TestSweepTruncatedStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(apitypes.CellResult{Workload: "a", Mode: "none"})
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.MaxRetries = 0
	_, err := c.Sweep(context.Background(), apitypes.SweepRequest{}, nil)
	if err == nil {
		t.Fatal("truncated stream must fail")
	}
}

// TestJitterBounds: equal jitter stays in [d/2, d).
func TestJitterBounds(t *testing.T) {
	c := New("http://unused")
	d := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		got := c.jitter(d)
		if got < d/2 || got > d {
			t.Fatalf("jitter(%v) = %v, outside [%v, %v]", d, got, d/2, d)
		}
	}
	if c.jitter(0) != 0 {
		t.Error("jitter(0) != 0")
	}
}

// TestSweepCutStreamNotRetried: with the default MaxRetries, a sweep
// stream cut after its 200 is never POSTed again — the one line it
// carried reaches fn once and the cut surfaces as an error.
func TestSweepCutStreamNotRetried(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		json.NewEncoder(w).Encode(apitypes.CellResult{Workload: "a", Mode: "none"})
	}))
	defer srv.Close()

	var cells []apitypes.CellResult
	_, err := fastClient(srv.URL).Sweep(context.Background(), apitypes.SweepRequest{}, func(c apitypes.CellResult) error {
		cells = append(cells, c)
		return nil
	})
	if !errors.Is(err, errNoSummary) {
		t.Fatalf("err = %v, want the truncation error", err)
	}
	if got := posts.Load(); got != 1 {
		t.Errorf("sweep POSTed %d times, want 1", got)
	}
	if len(cells) != 1 {
		t.Errorf("delivered %d cells, want the stream's 1", len(cells))
	}
}
