package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/workload"
)

// post runs one request through the handler without a socket.
func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func mustNew(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNewResolvesDefaults: the zero Options resolve to GOMAXPROCS
// workers and a 4×Workers queue, and Options reports what admission
// actually enforces.
func TestNewResolvesDefaults(t *testing.T) {
	s := mustNew(t, Options{})
	o := s.Options()
	if want := runtime.GOMAXPROCS(0); o.Workers != want {
		t.Errorf("Workers = %d, want GOMAXPROCS = %d", o.Workers, want)
	}
	if o.Queue != 4*o.Workers {
		t.Errorf("Queue = %d, want 4×Workers = %d", o.Queue, 4*o.Workers)
	}
	if cap(s.adm.slots) != o.Workers || s.adm.maxWait != int64(o.Queue) {
		t.Errorf("admission bounds %d slots, %d waiting; Options say %d, %d",
			cap(s.adm.slots), s.adm.maxWait, o.Workers, o.Queue)
	}
}

func decodeBody[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding response %q: %v", rec.Body.String(), err)
	}
	return v
}

// TestSimBadRequests is the 400 table: every malformed or semantically
// invalid body must come back 400 with a JSON error, never 500 and
// never a hang. The cluster package's rejection table runs the same
// cases against both front ends for parity.
func TestSimBadRequests(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	h := s.Handler()
	cases := []struct {
		name, body string
		wantInErr  string
	}{
		{"empty body", "", "decoding request"},
		{"not json", "these are not the cells you are looking for", "decoding request"},
		{"truncated json", `{"workload":"stream-copy-16MB"`, "decoding request"},
		{"unknown field", `{"workload":"stream-copy-16MB","mode":"imt","wrokload":"typo"}`, "unknown field"},
		{"trailing garbage", `{"workload":"stream-copy-16MB","mode":"imt"} {"again":true}`, "trailing data"},
		{"wrong type", `{"workload":42,"mode":"imt"}`, "decoding request"},
		{"unknown workload", `{"workload":"no-such-workload","mode":"imt"}`, "unknown workload"},
		{"unknown mode", `{"workload":"stream-copy-16MB","mode":"quantum"}`, "unknown tagging mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, "/v1/sim", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %q)", rec.Code, rec.Body.String())
			}
			e := decodeBody[apitypes.ErrorResponse](t, rec)
			if !strings.Contains(e.Error.Message, tc.wantInErr) {
				t.Errorf("error %q does not mention %q", e.Error.Message, tc.wantInErr)
			}
			if e.Error.Code != "bad_request" {
				t.Errorf("code = %q, want bad_request", e.Error.Code)
			}
		})
	}
	if st := s.Stats(); st.Errors != 0 {
		t.Errorf("client mistakes counted as server errors: %+v", st)
	}
}

// TestSimOK runs one real cell end to end through the handler.
func TestSimOK(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, CacheDir: t.TempDir()})
	h := s.Handler()
	body := `{"workload":"stream-copy-16MB","mode":"imt"}`
	rec := post(t, h, "/v1/sim", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	res := decodeBody[apitypes.CellResult](t, rec)
	if res.Stats == nil || res.Stats.Cycles == 0 || res.Stats.WarpOps == 0 {
		t.Fatalf("empty stats: %+v", res)
	}
	if res.Cached || res.Coalesced {
		t.Errorf("first run cannot be cached/coalesced: %+v", res)
	}
	if res.CacheKey == "" {
		t.Error("missing cache key")
	}

	// Same cell again: the pre-admission cache fast path answers, with
	// bit-identical stats.
	rec2 := post(t, h, "/v1/sim", body)
	if rec2.Code != http.StatusOK {
		t.Fatalf("warm status = %d: %s", rec2.Code, rec2.Body.String())
	}
	res2 := decodeBody[apitypes.CellResult](t, rec2)
	if !res2.Cached {
		t.Errorf("second run must be a cache hit: %+v", res2)
	}
	a, _ := json.Marshal(res.Stats)
	b, _ := json.Marshal(res2.Stats)
	if !bytes.Equal(a, b) {
		t.Error("cached stats differ from fresh stats")
	}
	if st := s.Stats(); st.CacheHits != 1 || st.Cells != 2 {
		t.Errorf("stats after warm hit: %+v", st)
	}
}

// TestSimEquivalentModesShareEntry: imt and ecc-steal keep tags in the
// ECC check bits, so they key (gpusim.Config.Canonical) and simulate as
// none. After a none cell, its imt and ecc-steal twins are answered
// from the same cache entry, each under its own requested mode.
func TestSimEquivalentModesShareEntry(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, CacheDir: t.TempDir()})
	h := s.Handler()
	sim := func(mode string) apitypes.CellResult {
		t.Helper()
		rec := post(t, h, "/v1/sim", `{"workload":"hpc-micro0","mode":"`+mode+`"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", mode, rec.Code, rec.Body.String())
		}
		return decodeBody[apitypes.CellResult](t, rec)
	}
	none := sim("none")
	if none.Cached {
		t.Fatalf("cold none cell reported cached: %+v", none)
	}
	want, _ := json.Marshal(none.Stats)
	for _, mode := range []string{"imt", "ecc-steal"} {
		res := sim(mode)
		if !res.Cached {
			t.Errorf("%s after none: cached = false, want the none entry", mode)
		}
		if res.Mode != mode {
			t.Errorf("response mode = %q, want %q", res.Mode, mode)
		}
		if res.CacheKey != none.CacheKey {
			t.Errorf("%s cache_key %q, none's %q", mode, res.CacheKey, none.CacheKey)
		}
		if got, _ := json.Marshal(res.Stats); !bytes.Equal(got, want) {
			t.Errorf("%s stats differ from none's", mode)
		}
	}
	if st := s.Stats(); st.CacheHits != 2 || st.Cells != 3 {
		t.Errorf("stats: %+v, want 3 cells with 2 cache hits", st)
	}
}

// TestSimSampled: a /v1/sim with sample_interval runs on the server's
// one engine with the interval on the job. Its Samples series equals an
// in-process runner run of the same cell, and its repeat is answered by
// the cache fast path, byte-identical, without counting in runner_*.
func TestSimSampled(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, CacheDir: t.TempDir()})
	h := s.Handler()
	body := `{"workload":"hpc-micro0","mode":"imt","sample_interval":20000}`
	rec := post(t, h, "/v1/sim", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	res := decodeBody[apitypes.CellResult](t, rec)
	if res.Cached || res.Stats == nil {
		t.Fatalf("first sampled run: %+v", res)
	}

	var w workload.Workload
	for _, c := range workload.Catalog() {
		if c.Name == "hpc-micro0" {
			w = c
		}
	}
	job := runner.Job{Workload: w, Mode: gpusim.ModeIMT, SampleInterval: 20000}
	want := runner.New(gpusim.DefaultConfig(), runner.Options{}).Cell(context.Background(), job, nil)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if len(want.Stats.Samples) == 0 {
		t.Fatal("in-process run recorded no samples")
	}
	if !reflect.DeepEqual(res.Stats.Samples, want.Stats.Samples) {
		t.Errorf("served Samples (%d) differ from the in-process run's (%d)", len(res.Stats.Samples), len(want.Stats.Samples))
	}
	key, _ := runner.CacheKeyFor(gpusim.DefaultConfig(), job)
	if res.CacheKey != shortKey(key) {
		t.Errorf("cache_key %q, want %q", res.CacheKey, shortKey(key))
	}

	rec2 := post(t, h, "/v1/sim", body)
	if rec2.Code != http.StatusOK {
		t.Fatalf("repeat status = %d: %s", rec2.Code, rec2.Body.String())
	}
	res2 := decodeBody[apitypes.CellResult](t, rec2)
	if !res2.Cached {
		t.Errorf("repeat must be a cache hit: %+v", res2)
	}
	a, _ := json.Marshal(res.Stats)
	b, _ := json.Marshal(res2.Stats)
	if !bytes.Equal(a, b) {
		t.Error("cached sampled stats differ from fresh stats")
	}
	if c := s.eng.Counters(); c.SimRuns != 1 || c.CacheHits != 0 || c.CacheMisses != 1 {
		t.Errorf("engine counters %+v: want one simulation and the fast-path hit uncounted", c)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.Cells != 2 {
		t.Errorf("stats: %+v, want 2 cells with 1 cache hit", st)
	}
}

// TestDeadlineExceeded504: a 1ms budget cannot simulate a 48MB
// streaming workload; the deadline must surface as 504, not 500 and
// not a hang.
func TestDeadlineExceeded504(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	rec := post(t, s.Handler(), "/v1/sim",
		`{"workload":"stream-triad-48MB","mode":"carve-low","timeout_ms":1}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Errorf("timeout not counted: %+v", st)
	}
}

// blockingHook is the deterministic slow simulation: execute enters,
// signals, and holds its admission slot until released.
type blockingHook struct {
	entered chan string // cell workload names, as executions start
	release chan struct{}
	runs    atomic.Int64
}

func newBlockingHook() *blockingHook {
	return &blockingHook{entered: make(chan string, 16), release: make(chan struct{})}
}

func (b *blockingHook) hook(ctx context.Context, cell Cell) outcome {
	b.runs.Add(1)
	b.entered <- cell.Ref.Workload
	select {
	case <-b.release:
		return outcome{stats: gpusim.Stats{Cycles: 42, WarpOps: 1}}
	case <-ctx.Done():
		return outcome{err: ctx.Err()}
	}
}

func waitEntered(t *testing.T, b *blockingHook) string {
	t.Helper()
	select {
	case name := <-b.entered:
		return name
	case <-time.After(5 * time.Second):
		t.Fatal("execution never started")
		return ""
	}
}

// TestQueueFull429 pins the admission contract at the HTTP layer:
// Workers=1 and Queue=1 means one executing + one waiting; the third
// concurrent distinct request must get an immediate 429 with
// Retry-After while the other two eventually succeed.
func TestQueueFull429(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, Queue: 1})
	hook := newBlockingHook()
	s.simHook = hook.hook
	h := s.Handler()

	type reply struct {
		code int
		body string
	}
	fire := func(workload string) chan reply {
		ch := make(chan reply, 1)
		go func() {
			rec := post(t, h, "/v1/sim", `{"workload":"`+workload+`","mode":"imt"}`)
			ch <- reply{rec.Code, rec.Body.String()}
		}()
		return ch
	}

	first := fire("stream-copy-16MB")
	waitEntered(t, hook) // slot held
	second := fire("stream-scale-16MB")
	waitQueueDepth(t, s, 1) // queue full

	rec := post(t, h, "/v1/sim", `{"workload":"stream-add-16MB","mode":"imt"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}

	close(hook.release)
	for i, ch := range []chan reply{first, second} {
		select {
		case r := <-ch:
			if r.code != http.StatusOK {
				t.Errorf("admitted request %d = %d: %s", i, r.code, r.body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("admitted request %d never completed", i)
		}
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
}

func waitQueueDepth(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueDepth != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (now %d)", want, s.Stats().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescing: a herd of identical requests shares one execution;
// distinct cells do not coalesce.
func TestCoalescing(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, Queue: 8})
	hook := newBlockingHook()
	s.simHook = hook.hook
	h := s.Handler()

	const herd = 5
	var wg sync.WaitGroup
	results := make([]apitypes.CellResult, herd)
	codes := make([]int, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(t, h, "/v1/sim", `{"workload":"stream-copy-16MB","mode":"imt"}`)
			codes[i] = rec.Code
			_ = json.Unmarshal(rec.Body.Bytes(), &results[i])
		}(i)
	}
	waitEntered(t, hook) // the leader is executing
	// Wait until every follower has joined the flight, then land it.
	waitCoalesced(t, s, herd-1)
	close(hook.release)
	wg.Wait()

	var coalesced int
	for i := range results {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d = %d", i, codes[i])
		}
		if results[i].Coalesced {
			coalesced++
		}
		if results[i].Stats == nil || results[i].Stats.Cycles != 42 {
			t.Fatalf("request %d missing the shared stats: %+v", i, results[i])
		}
	}
	if coalesced != herd-1 {
		t.Errorf("coalesced = %d, want %d (exactly one leader)", coalesced, herd-1)
	}
	if runs := hook.runs.Load(); runs != 1 {
		t.Errorf("executions = %d, want 1: the herd must cost one simulation", runs)
	}
	if st := s.Stats(); st.CoalesceHits != herd-1 {
		t.Errorf("CoalesceHits = %d, want %d", st.CoalesceHits, herd-1)
	}
}

func waitCoalesced(t *testing.T, s *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.flights.mu.Lock()
		var waiting uint64
		// Followers are not observable directly; approximate by giving
		// them time to join and checking the flight exists.
		flights := len(s.flights.m)
		s.flights.mu.Unlock()
		if flights == 1 {
			// All goroutines were launched before the leader entered;
			// a short grace lets the followers reach the flight wait.
			time.Sleep(20 * time.Millisecond)
			return
		}
		_ = waiting
		if time.Now().After(deadline) {
			t.Fatalf("flight never formed (want %d followers)", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainingRejects: a draining server refuses new work with 503 +
// Retry-After; healthz reports it.
func TestDrainingRejects(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	h := s.Handler()
	s.SetDraining(true)
	rec := post(t, h, "/v1/sim", `{"workload":"stream-copy-16MB","mode":"imt"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining sim status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if rec := get(t, h, "/v1/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", rec.Code)
	}
	s.SetDraining(false)
	if rec := get(t, h, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthy healthz = %d, want 200", rec.Code)
	}
}

// TestGracefulDrain is the SIGTERM-equivalent shutdown contract (imtd
// runs the daemon under its signal context): once the context is
// canceled, in-flight requests complete with 200, Run waits for them,
// and afterwards the socket is gone.
func TestGracefulDrain(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	hook := newBlockingHook()
	s.simHook = hook.hook

	d, err := Listen("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, signal := context.WithCancel(context.Background())
	defer signal()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- d.Run(ctx, 10*time.Second) }()

	inflight := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post("http://"+d.Addr()+"/v1/sim", "application/json",
			strings.NewReader(`{"workload":"stream-copy-16MB","mode":"imt"}`))
		if err != nil {
			t.Error("in-flight request failed:", err)
			inflight <- nil
			return
		}
		inflight <- resp
	}()
	waitEntered(t, hook)
	signal()

	// Shutdown must wait for the in-flight request, not kill it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(hook.release)
	select {
	case resp := <-inflight:
		if resp == nil {
			t.Fatal("in-flight request did not survive the drain")
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-flight request status = %d, want 200", resp.StatusCode)
		}
		var res apitypes.CellResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if res.Stats == nil || res.Stats.Cycles != 42 {
			t.Errorf("drained request lost its result: %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never returned")
	}
	// The daemon is gone: new connections must fail.
	if _, err := http.Get("http://" + d.Addr() + "/v1/healthz"); err == nil {
		t.Error("server still answering after drain")
	}
}

// TestSweepStreaming runs a real two-cell sweep and checks the NDJSON
// framing: one line per cell, then a summary line with done=true.
func TestSweepStreaming(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, CacheDir: t.TempDir()})
	rec := post(t, s.Handler(), "/v1/sweep",
		`{"workloads":["stream-copy-16MB"],"modes":["none","imt"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var cells []apitypes.CellResult
	var summary *apitypes.SweepSummary
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Done *bool `json:"done"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Done != nil {
			if summary != nil {
				t.Fatal("two summary lines")
			}
			summary = &apitypes.SweepSummary{}
			if err := json.Unmarshal(line, summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var cell apitypes.CellResult
		if err := json.Unmarshal(line, &cell); err != nil {
			t.Fatalf("bad cell line %q: %v", line, err)
		}
		cells = append(cells, cell)
	}
	if len(cells) != 2 {
		t.Fatalf("cell lines = %d, want 2", len(cells))
	}
	if summary == nil || !summary.Done || summary.Cells != 2 || summary.Failed != 0 {
		t.Fatalf("summary = %+v", summary)
	}
	for _, c := range cells {
		if c.Error != "" || c.Stats == nil {
			t.Errorf("cell %s/%s: %+v", c.Workload, c.Mode, c)
		}
	}
}

// TestCycleCapIsClientError: a sweep cell that outruns the request's own
// max_cycles fails without counting as a server error (the /v1/sim 400
// is a TestGatewayRejections row); the simulator's default runaway guard
// stays a 500.
func TestCycleCapIsClientError(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	rec := post(t, s.Handler(), "/v1/sweep", `{"workloads":["stream-copy-16MB"],"modes":["imt"],"max_cycles":1000}`)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "requested cycle cap") {
		t.Fatalf("sweep over its cap: %d %s", rec.Code, rec.Body.String())
	}
	if n := s.Stats().Errors; n != 0 {
		t.Errorf("serve_errors_total = %d after a capped cell, want 0", n)
	}
	runaway := errors.New("gpusim: exceeded 2000000000 cycles (deadlock or runaway workload)")
	if status, code := statusFor(runaway); status != http.StatusInternalServerError || code != apitypes.CodeInternal {
		t.Errorf("default guard: %d %s, want 500 internal", status, code)
	}
}

// TestSweepBadRequests covers the grid-expansion 400s.
func TestSweepBadRequests(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, FrontendOptions: FrontendOptions{MaxSweepCells: 3}})
	h := s.Handler()
	cases := []struct {
		name, body, wantInErr string
	}{
		{"unknown suite", `{"suite":"NOPE","modes":["imt"]}`, "unknown suite"},
		{"unknown workload", `{"workloads":["nope"],"modes":["imt"]}`, "unknown workload"},
		{"no workloads", `{"modes":["imt"]}`, "needs workloads"},
		{"no modes", `{"workloads":["stream-copy-16MB"]}`, "at least one mode"},
		{"bad mode", `{"workloads":["stream-copy-16MB"],"modes":["imt","warp9"]}`, "unknown tagging mode"},
		{"over cap", `{"workloads":["stream-copy-16MB","stream-add-16MB"],"modes":["none","imt"]}`, "server cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, "/v1/sweep", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
			}
			e := decodeBody[apitypes.ErrorResponse](t, rec)
			if !strings.Contains(e.Error.Message, tc.wantInErr) {
				t.Errorf("error %q does not mention %q", e.Error.Message, tc.wantInErr)
			}
			if e.Error.Code != "bad_request" {
				t.Errorf("code = %q, want bad_request", e.Error.Code)
			}
		})
	}
}

// TestWorkloadsAndStatsz sanity-checks the introspection endpoints.
func TestWorkloadsAndStatsz(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	h := s.Handler()
	rec := get(t, h, "/v1/workloads")
	if rec.Code != http.StatusOK {
		t.Fatalf("workloads = %d", rec.Code)
	}
	cat := decodeBody[apitypes.CatalogResponse](t, rec)
	if len(cat.Workloads) != 193 || len(cat.Suites) != 3 || len(cat.Modes) == 0 {
		t.Fatalf("catalog: %d workloads, %d suites, %d modes",
			len(cat.Workloads), len(cat.Suites), len(cat.Modes))
	}
	rec = get(t, h, "/v1/statsz")
	if rec.Code != http.StatusOK {
		t.Fatalf("statsz = %d", rec.Code)
	}
	snap := decodeBody[apitypes.StatsSnapshot](t, rec)
	// /v1/workloads and /v1/statsz are not counted as API requests;
	// only cell-serving endpoints are.
	if snap.Requests != 0 || snap.Draining {
		t.Errorf("snapshot = %+v", snap)
	}
}

// TestAdmissionUnit pins the controller's contract below HTTP.
func TestAdmissionUnit(t *testing.T) {
	a := newAdmission(1, 1, nil)
	ctx := context.Background()

	release1, err := a.acquire(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits the queue.
	type acq struct {
		release func()
		err     error
	}
	second := make(chan acq, 1)
	go func() {
		r, err := a.acquire(ctx, false)
		second <- acq{r, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for a.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// The queue is full: an impatient third caller is rejected now.
	if _, err := a.acquire(ctx, false); err != ErrQueueFull {
		t.Fatalf("third acquire err = %v, want ErrQueueFull", err)
	}
	// A patient caller is not subject to the bound, but respects ctx.
	pctx, cancel := context.WithCancel(ctx)
	patient := make(chan error, 1)
	go func() {
		_, err := a.acquire(pctx, true)
		patient <- err
	}()
	cancel()
	if err := <-patient; err != context.Canceled {
		t.Fatalf("patient acquire err = %v, want context.Canceled", err)
	}

	release1()
	release1() // idempotent
	got := <-second
	if got.err != nil {
		t.Fatalf("queued acquire: %v", got.err)
	}
	got.release()
	// Both slots free again: immediate acquire succeeds.
	r, err := a.acquire(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	r()
}

// TestDaemonHubKeepsNoCellLog: a daemon's default hub holds a registry
// only, so the cells it runs leave no trace events and no cell-log
// entries behind and its memory does not grow per cell. The registry
// still counts every cell the engine ran.
func TestDaemonHubKeepsNoCellLog(t *testing.T) {
	s := mustNew(t, Options{Workers: 4})
	cells, summary := sweepCells(t, s.Handler(),
		`{"suite":"STREAM","modes":["none","imt","ecc-steal","carve-low","carve-high","carve-mte"],"max_cycles":20000}`)
	if len(cells) != 48 || !summary.Done {
		t.Fatalf("sweep: %d cells, summary %+v", len(cells), summary)
	}
	hub := s.Hub()
	if n := hub.Trace.Len(); n != 0 {
		t.Errorf("hub holds %d trace events, want 0", n)
	}
	if n := len(hub.Cells()); n != 0 {
		t.Errorf("hub holds %d cell-log entries, want 0", n)
	}
	if n := len(s.Manifest().Cells); n != 0 {
		t.Errorf("manifest carries %d cells, want 0", n)
	}
	// Cells sharing a cache key coalesce onto one simulation; every
	// cell the engine ran is counted.
	ran := uint64(0)
	for _, c := range cells {
		if !c.Coalesced && !c.Cached {
			ran++
		}
	}
	if n := hub.Metrics.Snapshot().Counters["runner_cells_total"]; n != ran {
		t.Errorf("runner_cells_total = %d, want the %d cells the engine ran", n, ran)
	}
}
