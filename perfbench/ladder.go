package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/client"
	"repro/internal/workload"
)

// The ladder runs the same cells at every rung, from the simulator core
// up to the gateway, so each rung's self time is its time minus the
// rung below. Uncached repetitions carry a distinct MaxCycles far above
// any cell's cycle count: the work is unchanged (the cap never binds)
// but every repetition has a never-seen cache key, on every rung.
const (
	ladderCap      = 1 << 40
	ladderUncached = 3  // uncached repetitions of a heavy cell
	ladderMicroUnc = 11 // uncached repetitions of the micro cell
	ladderCached   = 25 // cached repetitions per rung
)

var rungNames = []string{"gpusim.Sim.Run", "runner.Engine.Run", "serve.Handler", "imtd", "imtgw"}

// ladderCell is one cell of the ladder. A trace cell carries its blob,
// and w names the generated workload the blob was recorded from.
type ladderCell struct {
	name string // catalog workload or "trace:<digest>"
	mode string
	w    workload.Workload // the generated workload (the twin's source for a trace cell)
	blob []byte            // IMTTRC bytes, trace cells only
}

func (c ladderCell) key() string { return cellKey(c.name, c.mode) }

// rungTimes holds one cell's timings per rung.
type rungTimes struct {
	uncached, cached [5][]time.Duration
}

// ladder is the state of one ladder run: the in-process rungs' engine,
// cache and server, and the served results for the output check.
type ladder struct {
	b       *bench
	cfg     gpusim.Config
	eng     *runner.Engine
	cache   *runner.Cache
	handler http.Handler
	shard   *client.Client
	gw      *client.Client
	results map[string][]byte // cell → canonical stats of the first result
}

func (b *bench) newLadder(f *fleet, cells []ladderCell) (*ladder, error) {
	dir := filepath.Join(b.dir, "ladder")
	srv, err := serve.New(serve.Options{
		Workers:  1,
		CacheDir: filepath.Join(dir, "serve-cache"),
		TraceDir: filepath.Join(dir, "serve-traces"),
	})
	if err != nil {
		return nil, err
	}
	l := &ladder{
		b:       b,
		cfg:     gpusim.DefaultConfig(),
		eng:     runner.New(gpusim.DefaultConfig(), runner.Options{Workers: 1, CacheDir: filepath.Join(dir, "runner-cache")}),
		cache:   runner.OpenCache(filepath.Join(dir, "runner-cache")),
		handler: srv.Handler(),
		shard:   newClient(f.shards[0].url),
		gw:      newClient(f.gw.url),
		results: map[string][]byte{},
	}
	// Trace cells must be stored on every serving rung before they run.
	for _, c := range cells {
		if c.blob == nil {
			continue
		}
		rec := httptest.NewRecorder()
		l.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(c.blob)))
		if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process trace upload: %d %s", rec.Code, rec.Body)
		}
		for _, cl := range []*client.Client{l.shard, l.gw} {
			if _, err := cl.UploadTrace(b.ctx, bytes.NewReader(c.blob)); err != nil {
				return nil, fmt.Errorf("ladder trace upload to %s: %w", cl.BaseURL, err)
			}
		}
	}
	return l, nil
}

// job is the runner job for a cell at the given cycle cap.
func (l *ladder) job(c ladderCell, maxCycles uint64) (runner.Job, error) {
	tm, carve, err := gpusim.ParseTagMode(c.mode)
	if err != nil {
		return runner.Job{}, err
	}
	job := runner.Job{Mode: tm, Carve: carve, MaxCycles: maxCycles}
	if c.blob == nil {
		job.Workload = c.w
		return job, nil
	}
	idx, err := gpusim.IndexTraceStream(bytes.NewReader(c.blob))
	if err != nil {
		return runner.Job{}, err
	}
	job.Key = c.name
	job.Traces = func(numSMs int) []gpusim.Trace {
		out := make([]gpusim.Trace, numSMs)
		copy(out, gpusim.OpenTraceAt(bytes.NewReader(c.blob), idx))
		return out
	}
	return job, nil
}

// call runs one request for cell c at rung r (0-based) and returns its
// wall time and canonical stats. cached asks for the cached path, which
// at rung 0 does not exist, and at rung 1 is a runner.Cache lookup.
func (l *ladder) call(r int, c ladderCell, maxCycles uint64, cached bool) (time.Duration, []byte, error) {
	job, err := l.job(c, maxCycles)
	if err != nil {
		return 0, nil, err
	}
	req := apitypes.SimRequest{Workload: c.name, Mode: c.mode, MaxCycles: maxCycles}
	var st gpusim.Stats
	t0 := time.Now()
	switch r {
	case 0:
		cfg := l.cfg
		cfg.Mode, cfg.Carve = job.Mode, job.Carve
		var traces []gpusim.Trace
		if job.Traces != nil {
			traces = job.Traces(cfg.NumSMs)
		} else {
			traces = job.Workload.Traces(cfg.NumSMs)
		}
		var sim *gpusim.Sim
		if sim, err = gpusim.New(cfg, traces); err == nil {
			st, err = sim.Run(maxCycles)
		}
	case 1:
		if cached {
			key, _ := runner.CacheKeyFor(l.cfg, job)
			var ok bool
			if st, ok = l.cache.Lookup(key); !ok {
				err = fmt.Errorf("runner cache missed %s", key[:12])
			}
			break
		}
		var res []runner.Result
		if res, err = l.eng.Run(l.b.ctx, []runner.Job{job}); err == nil {
			st, err = res[0].Stats, res[0].Err
		}
	case 2:
		blob, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		l.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sim", bytes.NewReader(blob)))
		var res apitypes.CellResult
		if err = json.Unmarshal(rec.Body.Bytes(), &res); err == nil && (rec.Code != http.StatusOK || res.Stats == nil) {
			err = fmt.Errorf("in-process handler: %d %s", rec.Code, rec.Body)
		}
		if err == nil {
			st = *res.Stats
		}
	default:
		cl := l.shard
		if r == 4 {
			cl = l.gw
		}
		var res apitypes.CellResult
		if res, err = cl.Sim(l.b.ctx, req); err == nil && res.Stats != nil {
			st = *res.Stats
		}
	}
	d := time.Since(t0)
	if err != nil {
		return d, nil, fmt.Errorf("%s %s: %w", rungNames[r], c.key(), err)
	}
	return d, canonical(st), nil
}

// run measures every cell at every rung. Repetitions are the outer loop
// and rungs the inner one, so drift in the machine's speed touches all
// rungs alike. Every call is one op; every result must equal the first
// result of its cell, and a trace cell's must equal its generated twin.
func (l *ladder) run(cells []ladderCell) map[string]*rungTimes {
	out := map[string]*rungTimes{}
	for ci, c := range cells {
		t := &rungTimes{}
		out[c.key()] = t
		reps := ladderUncached
		if ci == 0 {
			reps = ladderMicroUnc
		}
		for rep := 0; rep < reps; rep++ {
			for r := range rungNames {
				capCycles := uint64(ladderCap + 100*r + rep)
				l.timed(r, c, capCycles, false, rep, &t.uncached[r])
			}
		}
		// The cached path reuses each rung's last uncached key.
		for rep := 0; rep < ladderCached; rep++ {
			for r := 1; r < len(rungNames); r++ {
				capCycles := uint64(ladderCap + 100*r + reps - 1)
				l.timed(r, c, capCycles, true, rep, &t.cached[r])
			}
		}
	}
	return out
}

// timed makes one ladder call as one op, appending its wall time to
// into when it succeeds and checking its result.
func (l *ladder) timed(r int, c ladderCell, maxCycles uint64, cached bool, rep int, into *[]time.Duration) {
	kind := "uncached"
	if cached {
		kind = "cached"
	}
	span := l.b.spans.begin("ladder."+rungNames[r], fmt.Sprintf("ladder/%s/%s/%d", c.key(), kind, rep), 0)
	d, got, err := l.call(r, c, maxCycles, cached)
	l.b.spans.end(span)
	if err != nil {
		l.b.logFailure("%v", err)
		l.b.op(false)
		return
	}
	ref := c.key()
	if c.blob != nil {
		ref = cellKey(c.w.Name, c.mode) // the twin's result, measured first
	}
	want, seen := l.results[ref]
	if !seen {
		l.results[ref] = got
		want = got
	}
	ok := bytes.Equal(got, want)
	if !ok {
		l.b.mismatch("ladder %s at %s (%s) differs from %s", c.key(), rungNames[r], kind, ref)
	}
	l.b.op(ok)
	*into = append(*into, d)
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// selfTimes returns each rung's median and self time (median minus the
// median of the rung below). For the cached path rung 0 is zero: a
// cached request runs no simulation.
func selfTimes(ds [5][]time.Duration) (med, self [5]time.Duration) {
	for r := range ds {
		med[r] = medianDur(ds[r])
		self[r] = med[r]
		if r > 0 {
			self[r] -= med[r-1]
		}
	}
	return med, self
}

// printBreakdown writes where a request's time goes, rung by rung, as
// differences of per-rung medians. Each rung is timed on requests of
// its own, so these self times are estimates: they add up to the top
// rung's median by construction, which is printed but proves nothing.
// Timing every rung of one request needs spans inside the programs.
func printBreakdown(label string, ds [5][]time.Duration) {
	med, self := selfTimes(ds)
	fmt.Printf("ladder %s:", label)
	for r := range rungNames {
		fmt.Printf(" %s %+.1fus", rungNames[r], us(self[r]))
	}
	fmt.Printf(" (imtgw median %.1fus)\n", us(med[len(med)-1]))
}

// runLadder records the ladder's spans and per-layer metrics: the micro
// cell hpc-micro0/none, a heavy cell and the heavy cell's trace twin,
// each uncached and cached, at all five rungs.
func (b *bench) runLadder(f *fleet) error {
	byName := map[string]workload.Workload{}
	for _, w := range workload.Catalog() {
		byName[w.Name] = w
	}
	heavy := byName["sla-spmv13"]
	var blob bytes.Buffer
	if err := encodeTrace(heavy, gpusim.DefaultConfig().NumSMs, &blob); err != nil {
		return err
	}
	digest := sha256.Sum256(blob.Bytes()) // the trace store's content address
	cells := []ladderCell{
		{name: "hpc-micro0", mode: "none", w: byName["hpc-micro0"]},
		{name: heavy.Name, mode: "imt", w: heavy},
		{name: "trace:" + hex.EncodeToString(digest[:]), mode: "imt", w: heavy, blob: blob.Bytes()},
	}
	if err := os.MkdirAll(filepath.Join(b.dir, "ladder"), 0o755); err != nil {
		return err
	}
	l, err := b.newLadder(f, cells)
	if err != nil {
		return err
	}
	times := l.run(cells)
	fmt.Printf("ladder engine counters (rung 2): %+v\n", l.eng.Counters())
	for _, c := range cells {
		printBreakdown(c.key()+" uncached", times[c.key()].uncached)
		printBreakdown(c.key()+" cached", times[c.key()].cached)
	}

	micro := times[cells[0].key()]
	_, su := selfTimes(micro.uncached)
	mc, sc := selfTimes(micro.cached)
	note := fmt.Sprintf("median of %d on %s", ladderCached, cells[0].key())
	b.set("runner.cache_lookup_us", us(mc[1]), "us", note)
	b.set("serve.handler_self_us_cached", us(sc[2]), "us", note)
	b.set("serve.loopback_self_us", us(sc[3]), "us", note)
	b.set("cluster.hop_self_us", us(sc[4]), "us", note)
	note = fmt.Sprintf("median of %d uncached on %s", ladderMicroUnc, cells[0].key())
	b.set("runner.cell_overhead_us", us(su[1]), "us", note)
	b.set("serve.handler_self_us_uncached", us(su[2]), "us", note)

	gen := medianDur(times[cells[1].key()].uncached[0])
	replay := medianDur(times[cells[2].key()].uncached[0])
	share := 0.0
	if gen > 0 && replay > 0 { // zero when every call at the rung failed
		share = float64(replay-gen) / float64(replay)
	}
	b.set("gpusim.decode_share", share, "ratio",
		fmt.Sprintf("(trace %.1fms - generated %.1fms) / trace %.1fms, %s", ms(replay), ms(gen), ms(replay), cells[1].key()))

	return b.traceOverhead(l, cells[0])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceOverhead alternates cached top-rung requests with span recording
// off and on; the difference of the medians is what recording costs a
// request.
func (b *bench) traceOverhead(l *ladder, c ladderCell) error {
	rec := b.spans
	var off, on []time.Duration
	capCycles := uint64(ladderCap + 100*4 + ladderMicroUnc - 1)
	for i := 0; i < 2*ladderCached; i++ {
		if i%2 == 0 {
			b.spans = nil
		}
		t0 := time.Now()
		span := b.spans.begin("ladder.overhead", fmt.Sprintf("overhead/%d", i), 0)
		_, _, err := l.call(4, c, capCycles, true)
		b.spans.end(span)
		d := time.Since(t0)
		b.spans = rec
		if err != nil {
			return err
		}
		if i%2 == 0 {
			off = append(off, d)
		} else {
			on = append(on, d)
		}
	}
	b.set("trace.overhead_us", us(medianDur(on)-medianDur(off)), "us",
		fmt.Sprintf("median traced %.1fus - untraced %.1fus, %d each", us(medianDur(on)), us(medianDur(off)), ladderCached))
	return nil
}
