package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/gpusim"
	"repro/internal/serve/apitypes"
)

func del(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodDelete, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func waitJobState(t *testing.T, h http.Handler, id string, want apitypes.JobState) apitypes.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := get(t, h, "/v1/jobs/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %s: %d %s", id, rec.Code, rec.Body.String())
		}
		info := decodeBody[apitypes.JobInfo](t, rec)
		if info.State == want {
			return info
		}
		if info.State.Terminal() {
			t.Fatalf("job %s reached %s while waiting for %s: %+v", id, info.State, want, info)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (now %+v)", id, want, info)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// streamJob collects a job stream's frames and summary from seq `from`.
func streamJob(t *testing.T, h http.Handler, id string, from int) ([]apitypes.JobFrame, apitypes.JobStreamSummary) {
	t.Helper()
	rec := get(t, h, fmt.Sprintf("/v1/jobs/%s/stream?from=%d", id, from))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	var frames []apitypes.JobFrame
	var summary apitypes.JobStreamSummary
	sawSummary := false
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 0, 64<<10), apitypes.MaxRequestBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			State *apitypes.JobState `json:"state"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.State != nil {
			if sawSummary {
				t.Fatal("two summary lines")
			}
			sawSummary = true
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var f apitypes.JobFrame
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("bad frame line %q: %v", line, err)
		}
		frames = append(frames, f)
	}
	if !sawSummary {
		t.Fatalf("stream ended without a summary: %s", rec.Body.String())
	}
	return frames, summary
}

// TestJobLifecycle: submit → 202 queued, poll to done, stream all
// frames, resume the stream from a mid-point with no duplicates, list.
func TestJobLifecycle(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, CacheDir: t.TempDir(), JobsDir: t.TempDir()})
	defer s.KillJobs()
	h := s.Handler()

	rec := post(t, h, "/v1/jobs",
		`{"tenant":"alice","workloads":["stream-copy-16MB","stream-scale-16MB"],"modes":["none","imt"]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	info := decodeBody[apitypes.JobInfo](t, rec)
	if info.ID == "" || info.Tenant != "alice" || info.Cells != 4 || info.State != apitypes.JobQueued {
		t.Fatalf("submitted = %+v", info)
	}

	final := waitJobState(t, h, info.ID, apitypes.JobDone)
	if final.DoneCells != 4 || final.FailedCells != 0 || final.Resumed {
		t.Fatalf("final = %+v", final)
	}

	frames, summary := streamJob(t, h, info.ID, 0)
	if len(frames) != 4 {
		t.Fatalf("frames = %d, want 4", len(frames))
	}
	for i, f := range frames {
		if f.Seq != i {
			t.Errorf("frame %d has seq %d", i, f.Seq)
		}
		if f.Cell.Error != "" || f.Cell.Stats == nil {
			t.Errorf("frame %d: %+v", i, f.Cell)
		}
	}
	if !summary.Done || summary.State != apitypes.JobDone || summary.Cells != 4 || summary.NextSeq != 4 {
		t.Fatalf("summary = %+v", summary)
	}

	// Detach/attach: from=2 yields exactly frames 2 and 3.
	tail, summary2 := streamJob(t, h, info.ID, 2)
	if len(tail) != 2 || tail[0].Seq != 2 || tail[1].Seq != 3 {
		t.Fatalf("resumed frames = %+v", tail)
	}
	if !summary2.Done || summary2.NextSeq != 4 {
		t.Fatalf("resumed summary = %+v", summary2)
	}

	// Listing, with and without the tenant filter.
	list := decodeBody[apitypes.JobListResponse](t, get(t, h, "/v1/jobs"))
	if len(list.Jobs) != 1 || list.Jobs[0].ID != info.ID {
		t.Fatalf("list = %+v", list)
	}
	if empty := decodeBody[apitypes.JobListResponse](t, get(t, h, "/v1/jobs?tenant=bob")); len(empty.Jobs) != 0 {
		t.Fatalf("bob's list = %+v", empty)
	}

	// statsz carries the job counters.
	snap := decodeBody[apitypes.StatsSnapshot](t, get(t, h, "/v1/statsz"))
	if snap.Jobs == nil || snap.Jobs.Submitted != 1 || snap.Jobs.Done != 1 || snap.Jobs.Cells != 4 {
		t.Fatalf("statsz jobs = %+v", snap.Jobs)
	}
	if snap.Jobs.WALBytes <= 0 {
		t.Errorf("WALBytes = %d", snap.Jobs.WALBytes)
	}
}

func TestJobBadRequests(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, JobsDir: t.TempDir()})
	defer s.KillJobs()
	h := s.Handler()
	cases := []struct {
		name, body, wantInErr string
	}{
		{"not json", "nope", "decoding request"},
		{"unknown field", `{"tenannt":"typo","modes":["imt"]}`, "unknown field"},
		{"no workloads", `{"modes":["imt"]}`, "needs workloads"},
		{"unknown workload", `{"workloads":["nope"],"modes":["imt"]}`, "unknown workload"},
		{"no modes", `{"workloads":["stream-copy-16MB"]}`, "at least one mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, "/v1/jobs", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
			}
			e := decodeBody[apitypes.ErrorResponse](t, rec)
			if e.Error.Code != apitypes.CodeBadRequest || !strings.Contains(e.Error.Message, tc.wantInErr) {
				t.Errorf("envelope = %+v", e.Error)
			}
		})
	}
	// Unknown ids: 404 with code not_found on every per-job route.
	for _, rec := range []*httptest.ResponseRecorder{
		get(t, h, "/v1/jobs/j-nope"),
		get(t, h, "/v1/jobs/j-nope/stream"),
		del(t, h, "/v1/jobs/j-nope"),
	} {
		if rec.Code != http.StatusNotFound {
			t.Fatalf("unknown id status = %d", rec.Code)
		}
		if e := decodeBody[apitypes.ErrorResponse](t, rec); e.Error.Code != apitypes.CodeNotFound {
			t.Errorf("envelope = %+v", e.Error)
		}
	}
	// Bad from parameter.
	s2 := mustNew(t, Options{Workers: 1, JobsDir: t.TempDir()})
	defer s2.KillJobs()
	h2 := s2.Handler()
	sub := decodeBody[apitypes.JobInfo](t, post(t, h2, "/v1/jobs", `{"workloads":["stream-copy-16MB"],"modes":["none"]}`))
	for _, from := range []string{"-1", "abc"} {
		if rec := get(t, h2, "/v1/jobs/"+sub.ID+"/stream?from="+from); rec.Code != http.StatusBadRequest {
			t.Fatalf("from=%s status = %d", from, rec.Code)
		}
	}
}

// TestJobsDisabled: without JobsDir every job route answers 404 with an
// explanatory envelope instead of a blind mux miss.
func TestJobsDisabled(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	h := s.Handler()
	for _, rec := range []*httptest.ResponseRecorder{
		post(t, h, "/v1/jobs", `{"workloads":["stream-copy-16MB"],"modes":["none"]}`),
		get(t, h, "/v1/jobs"),
		get(t, h, "/v1/jobs/j-x"),
		get(t, h, "/v1/jobs/j-x/stream"),
		del(t, h, "/v1/jobs/j-x"),
	} {
		if rec.Code != http.StatusNotFound {
			t.Fatalf("disabled status = %d: %s", rec.Code, rec.Body.String())
		}
		e := decodeBody[apitypes.ErrorResponse](t, rec)
		if e.Error.Code != apitypes.CodeNotFound || !strings.Contains(e.Error.Message, "jobs-dir") {
			t.Errorf("envelope = %+v", e.Error)
		}
	}
	// statsz omits the jobs section entirely.
	if snap := decodeBody[apitypes.StatsSnapshot](t, get(t, h, "/v1/statsz")); snap.Jobs != nil {
		t.Errorf("jobs section present without JobsDir: %+v", snap.Jobs)
	}
}

func TestJobCancelOverHTTP(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, JobsDir: t.TempDir()})
	defer s.KillJobs()
	hook := newBlockingHook()
	s.simHook = hook.hook
	h := s.Handler()

	info := decodeBody[apitypes.JobInfo](t, post(t, h, "/v1/jobs",
		`{"workloads":["stream-copy-16MB","stream-scale-16MB"],"modes":["imt"]}`))
	waitEntered(t, hook) // one cell is executing

	rec := del(t, h, "/v1/jobs/"+info.ID)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", rec.Code, rec.Body.String())
	}
	if got := decodeBody[apitypes.JobInfo](t, rec); got.State != apitypes.JobCanceled {
		t.Fatalf("after cancel = %+v", got)
	}
	close(hook.release)
	// The stream of a canceled job terminates with done=true.
	_, summary := streamJob(t, h, info.ID, 0)
	if !summary.Done || summary.State != apitypes.JobCanceled {
		t.Fatalf("summary = %+v", summary)
	}
	// A canceled job starts no more cells: the second never ran.
	s.KillJobs() // waits for the job's runner to return
	if n := hook.runs.Load(); n != 1 {
		t.Fatalf("%d cells reached the engine, want 1", n)
	}
}

// TestJobStreamEndsOnDrain: a stream attached to a running job ends
// with a resumable draining summary when the server drains, instead of
// hanging or lying done.
func TestJobStreamEndsOnDrain(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, JobsDir: t.TempDir()})
	defer s.KillJobs()
	hook := newBlockingHook()
	s.simHook = hook.hook
	h := s.Handler()

	info := decodeBody[apitypes.JobInfo](t, post(t, h, "/v1/jobs",
		`{"workloads":["stream-copy-16MB"],"modes":["imt"]}`))
	waitEntered(t, hook)

	type streamOut struct {
		frames  []apitypes.JobFrame
		summary apitypes.JobStreamSummary
	}
	out := make(chan streamOut, 1)
	go func() {
		frames, summary := streamJob(t, h, info.ID, 0)
		out <- streamOut{frames, summary}
	}()
	time.Sleep(50 * time.Millisecond) // let the stream attach
	s.SetDraining(true)
	defer s.SetDraining(false)

	select {
	case got := <-out:
		if got.summary.Done || !got.summary.Draining {
			t.Fatalf("drain summary = %+v", got.summary)
		}
		if got.summary.NextSeq != len(got.frames) {
			t.Fatalf("NextSeq = %d with %d frames", got.summary.NextSeq, len(got.frames))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end on drain")
	}
	close(hook.release)
}

// canonicalJobLines reduces a finished job's frames to the canonical
// sorted {workload, mode, stats} lines — the byte-identity the resume
// contract promises. Cached/Coalesced/ElapsedMs legitimately differ
// between a resumed run and an uninterrupted one; the simulated physics
// must not.
func canonicalJobLines(t *testing.T, frames []apitypes.JobFrame) []byte {
	t.Helper()
	lines := make([]string, 0, len(frames))
	for _, f := range frames {
		blob, err := json.Marshal(struct {
			Workload string      `json:"workload"`
			Mode     string      `json:"mode"`
			Stats    interface{} `json:"stats"`
		}{f.Cell.Workload, f.Cell.Mode, f.Cell.Stats})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(blob))
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

// TestJobCrashRestartByteIdentical is the tentpole contract end to end,
// in process: run a real job halfway, kill the job subsystem with no
// goodbye writes (SIGKILL-equivalent), restart a second server over the
// same directories, and require (a) the job resumes rather than
// restarts — ≥1 cell recovered without recompute — and (b) the merged
// result set is byte-identical to an uninterrupted run on pristine
// directories.
func TestJobCrashRestartByteIdentical(t *testing.T) {
	jobsDir, cacheDir := t.TempDir(), t.TempDir()
	body := `{"workloads":["stream-copy-16MB","stream-scale-16MB","stream-add-16MB"],"modes":["none","imt"]}`
	const cells = 6

	// Life one: run until at least two cells are done, then die hard.
	s1 := mustNew(t, Options{Workers: 2, CacheDir: cacheDir, JobsDir: jobsDir})
	h1 := s1.Handler()
	info := decodeBody[apitypes.JobInfo](t, post(t, h1, "/v1/jobs", body))
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur := decodeBody[apitypes.JobInfo](t, get(t, h1, "/v1/jobs/"+info.ID))
		if cur.DoneCells >= 2 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before the kill: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress before kill: %+v", cur)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.KillJobs()

	// Life two: same directories. The WAL replays, the job requeues, and
	// completed cells come back as resumed frames.
	s2 := mustNew(t, Options{Workers: 2, CacheDir: cacheDir, JobsDir: jobsDir})
	defer s2.KillJobs()
	h2 := s2.Handler()
	final := waitJobState(t, h2, info.ID, apitypes.JobDone)
	if !final.Resumed {
		t.Fatalf("job not marked resumed: %+v", final)
	}
	if final.ResumedCells < 1 {
		t.Fatalf("ResumedCells = %d, want >= 1", final.ResumedCells)
	}
	if final.DoneCells != cells || final.FailedCells != 0 {
		t.Fatalf("final = %+v", final)
	}
	frames, summary := streamJob(t, h2, info.ID, 0)
	if len(frames) != cells || !summary.Done || summary.Resumed != final.ResumedCells {
		t.Fatalf("stream: %d frames, summary %+v", len(frames), summary)
	}
	resumed := 0
	for _, f := range frames {
		if f.Resumed {
			resumed++
		}
	}
	if resumed != final.ResumedCells {
		t.Errorf("resumed frames = %d, info says %d", resumed, final.ResumedCells)
	}

	// Uninterrupted baseline on pristine directories.
	s3 := mustNew(t, Options{Workers: 2, CacheDir: t.TempDir(), JobsDir: t.TempDir()})
	defer s3.KillJobs()
	h3 := s3.Handler()
	base := decodeBody[apitypes.JobInfo](t, post(t, h3, "/v1/jobs", body))
	waitJobState(t, h3, base.ID, apitypes.JobDone)
	baseFrames, _ := streamJob(t, h3, base.ID, 0)

	got := canonicalJobLines(t, frames)
	want := canonicalJobLines(t, baseFrames)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result set differs from uninterrupted baseline:\n%s\nvs\n%s", got, want)
	}
}

// fullDisk fails the job log's next append once armed, the way a full
// disk does: half a record reaches the log (written through the hook's
// own handle, as the real append is never made), then ENOSPC.
func fullDisk(t *testing.T, armed *atomic.Bool) durable.FS {
	return durable.FS{Hook: func(op, path string) error {
		if op != "append" || !armed.CompareAndSwap(true, false) {
			return nil
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Error(err)
			return err
		}
		defer f.Close()
		if _, err := f.WriteString(`{"t":"state","id":"j-`); err != nil {
			t.Error(err)
		}
		return &os.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
	}}
}

// TestJobStorageErrors: a WAL append that fails for lack of space
// answers submit and cancel with 507 storage_error, like a trace
// upload, and the job table stays usable afterwards.
func TestJobStorageErrors(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, JobsDir: t.TempDir()})
	defer s.KillJobs()
	hook := newBlockingHook()
	s.simHook = hook.hook
	var armed atomic.Bool
	s.jobs.Store().UseFS(fullDisk(t, &armed))
	h := s.Handler()
	const body = `{"workloads":["stream-copy-16MB"],"modes":["imt"]}`

	wantStorage := func(step string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusInsufficientStorage {
			t.Fatalf("%s: status %d, want 507 (body %s)", step, rec.Code, rec.Body)
		}
		if e := decodeBody[apitypes.ErrorResponse](t, rec); e.Error.Code != apitypes.CodeStorage {
			t.Fatalf("%s: code %q, want %q", step, e.Error.Code, apitypes.CodeStorage)
		}
	}
	armed.Store(true)
	wantStorage("submit", post(t, h, "/v1/jobs", body))

	info := decodeBody[apitypes.JobInfo](t, post(t, h, "/v1/jobs", body))
	waitEntered(t, hook) // running: the cancel is the next append
	armed.Store(true)
	wantStorage("cancel", del(t, h, "/v1/jobs/"+info.ID))
	if got := decodeBody[apitypes.JobInfo](t, del(t, h, "/v1/jobs/"+info.ID)); got.State != apitypes.JobCanceled {
		t.Fatalf("cancel retried after the failure: %+v", got)
	}
	close(hook.release)
	if list := decodeBody[apitypes.JobListResponse](t, get(t, h, "/v1/jobs")); len(list.Jobs) != 1 {
		t.Fatalf("jobs = %+v, want only the acknowledged one", list.Jobs)
	}
}

// TestJobRouteAccounting: every job route is counted and timed under
// route="jobs", and a watch attach under route="watch".
func TestJobRouteAccounting(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, JobsDir: t.TempDir()})
	defer s.KillJobs()
	h := s.Handler()

	rec := post(t, h, "/v1/jobs", `{"workloads":["stream-copy-16MB"],"modes":["imt"],"watch":true,"max_cycles":100000}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	info := decodeBody[apitypes.JobInfo](t, rec)
	// Wait on the store, not over HTTP, so the route counts stay exact.
	deadline := time.Now().Add(30 * time.Second)
	for cur, _ := s.jobs.Store().Get(info.ID); !cur.State.Terminal(); cur, _ = s.jobs.Store().Get(info.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	steps := []struct {
		name, method, path string
		want               int
	}{
		{"list", http.MethodGet, "/v1/jobs", http.StatusOK},
		{"get", http.MethodGet, "/v1/jobs/" + info.ID, http.StatusOK},
		{"stream", http.MethodGet, "/v1/jobs/" + info.ID + "/stream", http.StatusOK},
		{"cancel", http.MethodDelete, "/v1/jobs/" + info.ID, http.StatusOK},
		{"watch", http.MethodGet, "/v1/watch/" + info.WatchRoom, http.StatusOK},
	}
	for _, st := range steps {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(st.method, st.path, nil))
		if rec.Code != st.want {
			t.Fatalf("%s: status %d, want %d (body %s)", st.name, rec.Code, st.want, rec.Body)
		}
	}

	for route, want := range map[string]uint64{"jobs": 5, "watch": 1} {
		if got := s.metrics.Latency.With(route).Count(); got != want {
			t.Errorf("%d requests timed under route=%s, want %d", got, route, want)
		}
	}
	if got := s.metrics.Requests.Value(); got != 6 {
		t.Errorf("%d requests counted, want 6", got)
	}
}

// TestJobTimeoutPerCell: a job's timeout_ms bounds each cell, not the
// whole job. Four sequential cells of about 30 ms each outlast an 80 ms
// budget together but fit it one by one; a budget below one cell's
// time fails every cell with a deadline error.
func TestJobTimeoutPerCell(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, JobsDir: t.TempDir()})
	defer s.KillJobs()
	s.simHook = func(ctx context.Context, _ Cell) outcome {
		select {
		case <-time.After(30 * time.Millisecond):
			// The context's deadline fires from a timer goroutine that a
			// loaded host can run late, letting this timer win the select
			// although the cell already overran its budget.
			if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
				return outcome{err: context.DeadlineExceeded}
			}
			return outcome{stats: gpusim.Stats{Cycles: 42, WarpOps: 1}}
		case <-ctx.Done():
			return outcome{err: ctx.Err()}
		}
	}
	h := s.Handler()
	const grid = `"workloads":["stream-copy-16MB","stream-scale-16MB"],"modes":["none","carve-low"]`

	ok := decodeBody[apitypes.JobInfo](t, post(t, h, "/v1/jobs", `{`+grid+`,"timeout_ms":80}`))
	if final := waitJobState(t, h, ok.ID, apitypes.JobDone); final.DoneCells != 4 || final.FailedCells != 0 {
		t.Fatalf("80 ms per cell: %+v", final)
	}

	short := decodeBody[apitypes.JobInfo](t, post(t, h, "/v1/jobs", `{`+grid+`,"timeout_ms":10}`))
	final := waitJobState(t, h, short.ID, apitypes.JobFailed)
	if final.FailedCells != 4 || !strings.Contains(final.Error, "deadline exceeded") {
		t.Fatalf("10 ms per cell: %+v", final)
	}
}
