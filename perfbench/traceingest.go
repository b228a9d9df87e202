package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/client"
	"repro/internal/workload"
)

// bigTraceOps is the per-SM op count of the synthetic trace streamed up
// and deleted once per run (2 SMs, about 16 MB on the wire).
const bigTraceOps = 1 << 20

// recordTrace writes the workload's generated per-SM traces to path in
// the IMTTRC format and returns the bytes written.
func recordTrace(w workload.Workload, numSMs int, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := encodeTrace(w, numSMs, f); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// encodeTrace drains the workload's generated per-SM traces into dst
// with gpusim.TraceEncoder.
func encodeTrace(w workload.Workload, numSMs int, dst io.Writer) error {
	enc, err := gpusim.NewTraceEncoder(dst, numSMs)
	if err != nil {
		return err
	}
	for _, tr := range w.Traces(numSMs) {
		var ops []gpusim.WarpOp
		for {
			op, ok := tr.Next()
			if !ok {
				break
			}
			ops = append(ops, op)
		}
		if err := enc.BeginSM(uint64(len(ops))); err != nil {
			return err
		}
		for _, op := range ops {
			if err := enc.WriteOp(op); err != nil {
				return err
			}
		}
	}
	return enc.Close()
}

// distinctTraces draws perFamily workloads from every family whose
// recorded traces all differ. Some catalog workloads record the same
// bytes (STREAM kernels of two sizes touch the same addresses and
// share a seed), and a duplicate's first upload would be a
// content-address hit.
func distinctTraces(rng *rand.Rand, perFamily, numSMs int) ([]workload.Workload, error) {
	fams := families()
	seen := map[[sha256.Size]byte]bool{}
	var out []workload.Workload
	for _, name := range familyNames {
		ws := fams[name]
		n := 0
		for _, i := range rng.Perm(len(ws)) {
			if n == perFamily {
				break
			}
			h := sha256.New()
			if err := encodeTrace(ws[i], numSMs, h); err != nil {
				return nil, err
			}
			var sum [sha256.Size]byte
			copy(sum[:], h.Sum(nil))
			if seen[sum] {
				continue
			}
			seen[sum] = true
			out = append(out, ws[i])
			n++
		}
	}
	return out, nil
}

// writeSyntheticTrace streams a seeded synthetic trace of numSMs × ops
// warp ops into w.
func writeSyntheticTrace(w io.Writer, seed int64, numSMs, ops int) error {
	rng := rand.New(rand.NewSource(seed))
	enc, err := gpusim.NewTraceEncoder(w, numSMs)
	if err != nil {
		return err
	}
	for sm := 0; sm < numSMs; sm++ {
		if err := enc.BeginSM(uint64(ops)); err != nil {
			return err
		}
		base := uint64(rng.Int63n(1<<30)) &^ 31
		for i := 0; i < ops; i++ {
			op := gpusim.WarpOp{
				Store:   rng.Intn(4) == 0,
				Compute: rng.Intn(4),
				Addrs:   []uint64{base + uint64(i)*32, base + uint64(rng.Int63n(1<<20))*32},
			}
			if err := enc.WriteOp(op); err != nil {
				return err
			}
		}
	}
	return enc.Close()
}

type recorded struct {
	w      workload.Workload
	path   string
	bytes  int64
	digest string // set once uploaded
}

// runTraceIngest records seeded catalog traces in set-up, uploads each
// twice through imtgw with at most maxConns clients (the second upload
// is a content-address hit), streams one large synthetic trace up and
// deletes it, then sweeps every trace:<digest> cell × sweepModes from
// one client. Trace-store writes and gpusim trace decode block the
// result here and nowhere else. An op is one upload, the big upload,
// its delete, or one trace cell; the latency percentiles and ops_per_s
// are over the trace cells.
func runTraceIngest(b *bench) error {
	numSMs := gpusim.DefaultConfig().NumSMs
	// Replaying a recorded trace costs less than generating it: 42 trace
	// cells take about 2.5 s, which leaves room for the uploads.
	sample, err := distinctTraces(b.rng, perFamily(b.seconds, 2.5), numSMs)
	if err != nil {
		return err
	}
	type ready struct {
		f      *fleet
		traces []*recorded
	}
	r, err := timedSetup(b, 5, func(dir string) (ready, error) {
		f, err := startFleet(b.ctx, b, dir)
		if err != nil {
			return ready{}, err
		}
		var traces []*recorded
		for i, w := range sample {
			path := filepath.Join(dir, fmt.Sprintf("trace%02d.trc", i))
			n, err := recordTrace(w, numSMs, path)
			if err != nil {
				return ready{}, errors.Join(fmt.Errorf("recording %s: %w", w.Name, err), f.stop())
			}
			traces = append(traces, &recorded{w: w, path: path, bytes: n})
		}
		return ready{f, traces}, nil
	}, func(r ready) error { return r.f.stop() })
	if err != nil {
		return err
	}
	b.fleet = r.f
	for _, t := range r.traces {
		b.tracePaths = append(b.tracePaths, t.path)
	}

	cl := newClient(r.f.gw.url)
	var (
		arrivals  []arrival
		start     time.Time
		elapsed   time.Duration
		uploadMB  float64
		uploadDur time.Duration
	)
	err = b.measureDeltas(r.f, func() error {
		t0 := time.Now()
		newBytes := b.uploadAll(r.traces)
		uploadDur = time.Since(t0)
		uploadMB = float64(newBytes) / 1e6
		var names []string
		for _, t := range r.traces {
			if t.digest != "" {
				names = append(names, "trace:"+t.digest)
			}
		}
		var err error
		arrivals, start, elapsed, err = b.timedSweep(cl, apitypes.SweepRequest{Workloads: names, Modes: sweepModes}, "trace-ingest.sweep")
		return err
	})
	if err != nil {
		return fmt.Errorf("trace ingest: %w", err)
	}
	// Every recorded trace is expected, so the cells of a failed upload
	// count as failed ops.
	var names []string
	for _, t := range r.traces {
		names = append(names, "trace:"+t.digest)
	}
	want := gridKeys(names, sweepModes)
	served, ok := b.checkSweepCells(arrivals, want)
	if err := b.checkTwins(r.traces, served, ok); err != nil {
		return err
	}
	b.countCells(want, ok)

	rss, err := r.f.peakRSSMB()
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", rss, "MB", "imtgw + 2 imtd VmHWM")
	grid := fmt.Sprintf("%d-cell grid (%d traces x %d modes)", len(want), len(names), len(sweepModes))
	arrivals = succeeded(arrivals)
	b.set("ops_per_s", fleetRate(arrivals, start), "1/s", "fleet trace cells/s over a "+grid)
	b.set("sweep_cells_per_s", float64(len(arrivals))/elapsed.Seconds(), "1/s", "trace cells over the sweep's wall time, "+grid)
	times := cellTimesMs(arrivals, start)
	b.set("p50_ms", percentile(times, 50), "ms", fmt.Sprintf("per-cell service time, n=%d", len(times)))
	b.set("p95_ms", percentile(times, 95), "ms", fmt.Sprintf("per-cell service time, n=%d", len(times)))
	b.set("upload_mb_per_s", uploadMB/uploadDur.Seconds(), "MB/s",
		fmt.Sprintf("%.1f MB of new digests in %v, hits and the delete included", uploadMB, uploadDur.Round(time.Millisecond)))
	return nil
}

// uploadAll uploads every recorded trace twice from maxConns workers,
// then streams the synthetic trace and deletes it. It returns the bytes
// that created new digests. Every upload and the delete is one op.
func (b *bench) uploadAll(traces []*recorded) int64 {
	cl := newClient(b.fleet.gw.url)
	var (
		mu       sync.Mutex
		newBytes int64
		wg       sync.WaitGroup
	)
	next := make(chan *recorded, len(traces)) // one send per trace
	for _, t := range traces {
		next <- t
	}
	close(next)
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				first, err1 := b.uploadFile(cl, t.path, "upload")
				second, err2 := b.uploadFile(cl, t.path, "re-upload")
				ok1 := err1 == nil && first.Created && first.Bytes == t.bytes
				ok2 := err2 == nil && !second.Created && second.Digest == first.Digest
				if err1 != nil || err2 != nil {
					b.logFailure("uploading %s: %v", t.w.Name, errors.Join(err1, err2))
				} else if !ok1 || !ok2 {
					b.mismatch("uploads of %s: created=%v then created=%v, digests %.12s/%.12s", t.w.Name, first.Created, second.Created, first.Digest, second.Digest)
				}
				mu.Lock()
				b.op(ok1)
				b.op(ok2)
				if ok1 {
					t.digest = first.Digest
					newBytes += first.Bytes
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// The large synthetic trace streams from a generator goroutine
	// straight into the request body; it never exists whole in memory.
	pr, pw := io.Pipe()
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		bw := bufio.NewWriterSize(pw, 256<<10)
		err := writeSyntheticTrace(bw, b.seed, 2, bigTraceOps)
		if err == nil {
			err = bw.Flush()
		}
		pw.CloseWithError(err)
	}()
	span := b.spans.begin("trace-ingest.upload-big", "upload-big", 0)
	up, err := cl.UploadTrace(b.ctx, pr)
	b.spans.end(span)
	_ = pr.Close() // unblocks the generator if the upload stopped reading
	<-genDone
	ok := err == nil && up.Created && up.TotalOps == 2*bigTraceOps
	if err != nil {
		b.logFailure("big upload: %v", err)
	} else if !ok {
		b.mismatch("big upload: created=%v with %d ops, want %d", up.Created, up.TotalOps, 2*bigTraceOps)
	}
	b.op(ok)
	if ok {
		newBytes += up.Bytes
		span = b.spans.begin("trace-ingest.delete", "delete-big", 0)
		_, err := cl.DeleteTrace(b.ctx, up.Digest)
		b.spans.end(span)
		if err != nil {
			b.logFailure("deleting the big upload: %v", err)
		}
		b.op(err == nil)
	}
	return newBytes
}

func (b *bench) uploadFile(cl *client.Client, path, what string) (apitypes.TraceUploadResponse, error) {
	f, err := os.Open(path)
	if err != nil {
		return apitypes.TraceUploadResponse{}, err
	}
	defer f.Close()
	span := b.spans.begin("trace-ingest."+what, path, 0)
	defer b.spans.end(span)
	return cl.UploadTrace(b.ctx, f)
}

// checkTwins requires every trace:<digest> cell to equal its generated
// twin — the catalog workload it was recorded from, run in process
// under the same mode. A mismatch fails the cell's verdict in ok.
func (b *bench) checkTwins(traces []*recorded, served map[string]gpusim.Stats, ok map[string]bool) error {
	var (
		jobs []runner.Job
		keys []string
	)
	for _, t := range traces {
		for _, m := range sweepModes {
			k := cellKey("trace:"+t.digest, m)
			if _, arrived := served[k]; !arrived {
				continue
			}
			job, err := jobFor(t.w, m)
			if err != nil {
				return err
			}
			jobs = append(jobs, job)
			keys = append(keys, k)
		}
	}
	results, err := inProcess(b.ctx, jobs)
	if err != nil {
		return fmt.Errorf("generated twins: %w", err)
	}
	for i, k := range keys {
		if !bytes.Equal(canonical(results[i].Stats), canonical(served[k])) {
			b.mismatch("%s differs from its generated twin %s", k, results[i].Job.Name())
			ok[k] = false
		}
	}
	return nil
}
