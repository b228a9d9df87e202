package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/client"
)

// newTraceFleet starts n imtd shards with per-shard trace stores plus a
// gateway over them.
func newTraceFleet(t *testing.T, n int) (*Gateway, []string) {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		s, err := serve.New(serve.Options{Workers: 2, CacheDir: t.TempDir(), TraceDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	gw, err := New(Options{Shards: urls, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return gw, urls
}

// traceKey is the ring key of the trace:<digest>/imt cell.
func traceKey(t *testing.T, gw *Gateway, digest string) string {
	t.Helper()
	cells, err := gw.ExpandSweep(apitypes.SweepRequest{Cells: []apitypes.CellRef{{Workload: "trace:" + digest, Mode: "imt"}}})
	if err != nil {
		t.Fatal(err)
	}
	return cells[0].Key
}

func gwTraceBlob(t *testing.T, seed int) ([]byte, string) {
	t.Helper()
	traces := make([]gpusim.Trace, 2)
	for sm := range traces {
		ops := make([]gpusim.WarpOp, 8)
		for i := range ops {
			ops[i] = gpusim.WarpOp{
				Store:   i%3 == 2,
				Addrs:   []uint64{uint64(0x40000 + seed*8192 + sm*1024 + i*32)},
				Compute: 2,
			}
		}
		traces[sm] = &gpusim.SliceTrace{Ops: ops}
	}
	var buf bytes.Buffer
	if err := gpusim.WriteTraces(&buf, traces); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:])
}

// TestGatewayTraceProxy: uploads through the gateway land on a
// deterministic shard (so re-uploads hit), the list is the fleet
// union, stat and raw download find the holder, and delete fans out.
func TestGatewayTraceProxy(t *testing.T) {
	gw, urls := newTraceFleet(t, 2)
	h := gw.Handler()
	blob, digest := gwTraceBlob(t, 1)

	req := httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(blob))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("re-upload through the gateway must content-address hit: %d %s", rec.Code, rec.Body)
	}

	rec = gwGet(t, h, "/v1/traces")
	var list apitypes.TraceListResponse
	mustDecode(t, rec, &list)
	if len(list.Traces) != 1 || list.Traces[0].Digest != digest {
		t.Fatalf("gateway list = %+v", list)
	}

	if rec := gwGet(t, h, "/v1/traces/"+digest); rec.Code != http.StatusOK {
		t.Fatalf("gateway stat: %d %s", rec.Code, rec.Body)
	}
	rec = gwGet(t, h, "/v1/traces/"+digest+"?raw=1")
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), blob) {
		t.Fatalf("gateway raw download: code %d, %d bytes, want %d", rec.Code, rec.Body.Len(), len(blob))
	}

	req = httptest.NewRequest(http.MethodDelete, "/v1/traces/"+digest, nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("gateway delete: %d %s", rec.Code, rec.Body)
	}
	for _, url := range urls {
		if _, err := client.New(url).TraceStat(t.Context(), digest); err == nil {
			t.Errorf("shard %s still holds the deleted trace", url)
		}
	}
	if rec := gwGet(t, h, "/v1/traces/"+digest); rec.Code != http.StatusNotFound {
		t.Errorf("stat after fan-out delete: %d", rec.Code)
	}
}

// TestGatewayTracePushOnMiss is the re-upload-on-miss contract: a blob
// resident only on the ring-non-preferred shard is pushed shard-to-
// shard by the gateway when a trace cell routes to the preferred shard,
// and the cell then succeeds there — no client-visible 404.
func TestGatewayTracePushOnMiss(t *testing.T) {
	gw, urls := newTraceFleet(t, 2)
	h := gw.Handler()
	blob, digest := gwTraceBlob(t, 2)

	preferred := gw.ring.Order(traceKey(t, gw, digest))[0]
	var source string
	for _, url := range urls {
		if url != preferred {
			source = url
		}
	}
	if _, err := client.New(source).UploadTrace(t.Context(), bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}

	body := fmt.Sprintf(`{"workload":"trace:%s","mode":"imt"}`, digest)
	rec := gwPost(t, h, "/v1/sim", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace sim through gateway: %d %s", rec.Code, rec.Body)
	}
	var res apitypes.CellResult
	mustDecode(t, rec, &res)
	if res.Shard != preferred {
		t.Errorf("cell served by %s, want ring-preferred %s", res.Shard, preferred)
	}
	if got := gw.mTracePushes.Value(); got != 1 {
		t.Errorf("trace pushes = %d, want 1", got)
	}
	if _, err := client.New(preferred).TraceStat(t.Context(), digest); err != nil {
		t.Errorf("preferred shard still missing the blob after push: %v", err)
	}

	// A sweep routed the same way reuses the now-resident blob — no
	// second push — and every cell arrives exactly once.
	sweepBody := fmt.Sprintf(`{"workloads":["trace:%s"],"modes":["none","imt"]}`, digest)
	rec = gwPost(t, h, "/v1/sweep", sweepBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace sweep: %d %s", rec.Code, rec.Body)
	}
	cells, summary := parseSweep(t, rec.Body)
	if len(cells) != 2 || summary.Failed != 0 {
		t.Fatalf("sweep cells=%d failed=%d: %+v", len(cells), summary.Failed, cells)
	}

	// Unknown digest: no shard holds it, push impossible → the shard's
	// typed 404 passes through.
	ghost := "00" + digest[2:]
	rec = gwPost(t, h, "/v1/sim", fmt.Sprintf(`{"workload":"trace:%s","mode":"imt"}`, ghost))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("ghost digest: %d %s", rec.Code, rec.Body)
	}
	var env apitypes.ErrorResponse
	mustDecode(t, rec, &env)
	if env.Error.Code != apitypes.CodeTraceNotFound {
		t.Errorf("ghost digest code = %q", env.Error.Code)
	}
}

// TestGatewayTraceSweepPushOnMiss drives the sweep-path fallback
// specifically: the whole shard request fails with trace_not_found, the
// gateway pushes the blob, retries the same shard once, and the merged
// stream still delivers every cell exactly once with no errors.
func TestGatewayTraceSweepPushOnMiss(t *testing.T) {
	gw, urls := newTraceFleet(t, 2)
	h := gw.Handler()
	blob, digest := gwTraceBlob(t, 3)

	preferred := gw.ring.Order(traceKey(t, gw, digest))[0]
	var source string
	for _, url := range urls {
		if url != preferred {
			source = url
		}
	}
	if _, err := client.New(source).UploadTrace(t.Context(), bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}

	rec := gwPost(t, h, "/v1/sweep", fmt.Sprintf(`{"workloads":["trace:%s"],"modes":["imt"]}`, digest))
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", rec.Code, rec.Body)
	}
	cells, summary := parseSweep(t, rec.Body)
	if len(cells) != 1 || summary.Failed != 0 || cells[0].Error != "" {
		t.Fatalf("sweep after push: cells=%+v summary=%+v", cells, summary)
	}
	if got := gw.mTracePushes.Value(); got != 1 {
		t.Errorf("trace pushes = %d, want 1", got)
	}
}

// TestGatewayTraceRawVanished: a blob that disappears between the
// gateway's stat and its raw read is a 404 trace_not_found, not a 200
// with an empty body — the status goes out only once the shard stream
// is open.
func TestGatewayTraceRawVanished(t *testing.T) {
	s, err := serve.New(serve.Options{Workers: 1, TraceDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	inner := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("raw") != "" {
			serve.WriteJSON(w, http.StatusNotFound, apitypes.ErrorResponse{Error: apitypes.ErrorBody{
				Code: apitypes.CodeTraceNotFound, Message: "evicted between stat and read",
			}})
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	gw, err := New(Options{Shards: []string{ts.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	h := gw.Handler()
	blob, digest := gwTraceBlob(t, 4)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(blob)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body)
	}
	rec = gwGet(t, h, "/v1/traces/"+digest+"?raw=1")
	var env apitypes.ErrorResponse
	mustDecode(t, rec, &env)
	if rec.Code != http.StatusNotFound || env.Error.Code != apitypes.CodeTraceNotFound {
		t.Fatalf("raw read of a vanished blob: %d code %q, want 404 trace_not_found", rec.Code, env.Error.Code)
	}
}

// TestTraceRoutesAcrossFrontEnds walks the trace lifecycle against an
// imtd handler and an imtgw-over-one-shard handler: both must answer
// every step with the same status and envelope code, count and time
// every trace request under route="traces", and time statsz without
// counting it as a request.
func TestTraceRoutesAcrossFrontEnds(t *testing.T) {
	single, err := serve.New(serve.Options{Workers: 1, TraceDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	gw, _ := newTraceFleet(t, 1)
	targets := []struct {
		name, prefix string
		h            http.Handler
		fe           *serve.Frontend
	}{{"imtd", "serve", single.Handler(), single.Frontend}, {"imtgw", "serve_gw", gw.Handler(), gw.Frontend}}

	blob, digest := gwTraceBlob(t, 5)
	steps := []struct {
		name, method, path string
		body               []byte
		draining           bool
		wantStatus         int
		wantCode           string
	}{
		{name: "upload", method: "POST", path: "/v1/traces", body: blob, wantStatus: 201},
		{name: "re-upload", method: "POST", path: "/v1/traces", body: blob, wantStatus: 200},
		{name: "list", method: "GET", path: "/v1/traces", wantStatus: 200},
		{name: "stat", method: "GET", path: "/v1/traces/" + digest, wantStatus: 200},
		{name: "raw", method: "GET", path: "/v1/traces/" + digest + "?raw=1", wantStatus: 200},
		{name: "corrupt upload", method: "POST", path: "/v1/traces", body: []byte("not a trace"), wantStatus: 400, wantCode: apitypes.CodeBadRequest},
		{name: "upload while draining", method: "POST", path: "/v1/traces", body: blob, draining: true, wantStatus: 503, wantCode: apitypes.CodeDraining},
		{name: "delete", method: "DELETE", path: "/v1/traces/" + digest, wantStatus: 200},
		{name: "stat after delete", method: "GET", path: "/v1/traces/" + digest, wantStatus: 404, wantCode: apitypes.CodeTraceNotFound},
		{name: "delete again", method: "DELETE", path: "/v1/traces/" + digest, wantStatus: 404, wantCode: apitypes.CodeTraceNotFound},
	}
	for _, tg := range targets {
		for _, st := range steps {
			tg.fe.SetDraining(st.draining)
			rec := httptest.NewRecorder()
			tg.h.ServeHTTP(rec, httptest.NewRequest(st.method, st.path, bytes.NewReader(st.body)))
			tg.fe.SetDraining(false)
			if rec.Code != st.wantStatus {
				t.Fatalf("%s %s: status %d, want %d (body %s)", tg.name, st.name, rec.Code, st.wantStatus, rec.Body)
			}
			switch {
			case st.wantCode != "":
				var env apitypes.ErrorResponse
				mustDecode(t, rec, &env)
				if env.Error.Code != st.wantCode {
					t.Errorf("%s %s: code %q, want %q", tg.name, st.name, env.Error.Code, st.wantCode)
				}
				if st.wantStatus == 503 && rec.Header().Get("Retry-After") == "" {
					t.Errorf("%s %s: 503 without Retry-After", tg.name, st.name)
				}
			case st.name == "list":
				var list apitypes.TraceListResponse
				mustDecode(t, rec, &list)
				if len(list.Traces) != 1 || list.Traces[0].Digest != digest || list.TotalBytes != int64(len(blob)) {
					t.Errorf("%s list = %+v", tg.name, list)
				}
			case st.name == "raw":
				if !bytes.Equal(rec.Body.Bytes(), blob) {
					t.Errorf("%s raw read: %d bytes, want the %d uploaded", tg.name, rec.Body.Len(), len(blob))
				}
				if got, want := rec.Header().Get("Content-Length"), fmt.Sprint(len(blob)); got != want {
					t.Errorf("%s raw read: Content-Length %q, want %q", tg.name, got, want)
				}
			default:
				var info apitypes.TraceInfo
				mustDecode(t, rec, &info)
				if info.Digest != digest || info.Bytes != int64(len(blob)) {
					t.Errorf("%s %s: info %+v", tg.name, st.name, info)
				}
			}
		}

		reg := tg.fe.Hub().Metrics
		requests := reg.Counter(tg.prefix+"_requests_total", "")
		latency := reg.HistogramVec(tg.prefix+"_request_seconds", "route", "", obs.DurationBuckets)
		if got := latency.With("traces").Count(); got != uint64(len(steps)) {
			t.Errorf("%s: %d requests timed under route=traces, want %d", tg.name, got, len(steps))
		}
		if got := requests.Value(); got != uint64(len(steps)) {
			t.Errorf("%s: %d requests counted, want %d", tg.name, got, len(steps))
		}
		if rec := gwGet(t, tg.h, "/v1/statsz"); rec.Code != http.StatusOK {
			t.Fatalf("%s statsz: %d", tg.name, rec.Code)
		}
		if got := requests.Value(); got != uint64(len(steps)) {
			t.Errorf("%s: statsz counted as a request (%d, want %d)", tg.name, got, len(steps))
		}
		if got := latency.With("statsz").Count(); got != 1 {
			t.Errorf("%s: %d requests timed under route=statsz, want 1", tg.name, got)
		}
	}
}

func mustDecode(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
}
