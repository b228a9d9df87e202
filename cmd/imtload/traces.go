package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/client"
)

// traceOpts configures trace mode (-traces).
type traceOpts struct {
	file      string
	modes     []string
	maxCycles uint64
	timeoutMs int64
	bigOps    int
}

// runTracesMode demonstrates — and asserts — the trace-store serving
// path end to end: a recorded trace file is uploaded twice (the second
// upload must be a content-address hit, not a second copy), a sweep of
// trace:<digest> cells is streamed back through whatever -addr points
// at (imtd or an imtgw gateway), and the streamed stats are
// byte-compared against an in-process replay of the very same file —
// the serving stack must add nothing and lose nothing. With
// -trace-big-ops a large synthetic trace is then streamed up through
// an io.Pipe (never materialized in this process), stat'd and deleted,
// proving the chunked path handles blobs bigger than anyone's buffer.
func runTracesMode(ctx context.Context, cl *client.Client, o traceOpts) int {
	if o.file == "" {
		fatal(fmt.Errorf("imtload: -traces needs -trace-file (record one with: imtsim -workload <name> -record <file>)"))
	}
	failures := 0

	// Upload twice: the store is content-addressed, so the second upload
	// of identical bytes must hit, not duplicate.
	up1, err := cl.UploadTraceFile(ctx, o.file)
	if err != nil {
		fmt.Println("traces: FAILED: upload:", err)
		return 1
	}
	up2, err := cl.UploadTraceFile(ctx, o.file)
	if err != nil {
		fmt.Println("traces: FAILED: re-upload:", err)
		return 1
	}
	digest := up1.Digest
	fmt.Printf("traces: uploaded %s: trace:%s (%d bytes, %d SMs, %d ops; created=%v then created=%v)\n",
		o.file, digest, up1.Bytes, up1.NumSMs, up1.TotalOps, up1.Created, up2.Created)
	if up2.Created || up2.Digest != digest {
		fmt.Println("traces: FAILED: re-uploading identical bytes was not a content-address hit")
		failures++
	}

	// One streaming sweep of the trace across every requested mode.
	workload := "trace:" + digest
	var cells []apitypes.CellResult
	summary, err := cl.Sweep(ctx, apitypes.SweepRequest{
		Workloads: []string{workload}, Modes: o.modes,
		MaxCycles: o.maxCycles, TimeoutMs: o.timeoutMs,
	}, func(res apitypes.CellResult) error {
		cells = append(cells, res)
		return nil
	})
	if err != nil {
		fmt.Println("traces: FAILED: sweep:", err)
		return failures + 1
	}
	fmt.Printf("traces: sweep streamed %d cells (%d cached, %d failed)\n", len(cells), summary.Cached, summary.Failed)
	if len(cells) != len(o.modes) || summary.Failed > 0 {
		fmt.Printf("traces: FAILED: want %d clean cells, got %d with %d failed\n", len(o.modes), len(cells), summary.Failed)
		failures++
	}

	// In-process ground truth: replay the same file locally under the
	// same cache key and compare canonical lines byte for byte.
	baseline, err := replayBaseline(ctx, o.file, digest, o.modes, o.maxCycles)
	if err != nil {
		fmt.Println("traces: FAILED: in-process replay:", err)
		return failures + 1
	}
	got, want := canonicalCells(cells), canonicalCells(baseline)
	if !bytes.Equal(got, want) {
		fmt.Printf("traces: FAILED: served sweep diverges from in-process replay:\n--- served\n%s--- local\n%s", got, want)
		failures++
	} else {
		fmt.Printf("traces: served results byte-identical to in-process replay (%d canonical lines)\n", len(cells))
	}

	// Server-side truth: the store must have seen our uploads, and at
	// least one of them as a hit.
	stats, err := cl.Stats(ctx)
	if err != nil {
		fatal(err)
	}
	if tr := stats.Traces; tr == nil {
		fmt.Println("traces: FAILED: /v1/statsz reports no trace store")
		failures++
	} else {
		fmt.Printf("traces: store: %d blobs (%d bytes), %d puts (%d hits), %d rejected, %d evicted, %d deleted\n",
			tr.Blobs, tr.Bytes, tr.Puts, tr.PutHits, tr.Rejected, tr.Evictions, tr.Deletes)
		if tr.PutHits < 1 {
			fmt.Println("traces: FAILED: server reports zero content-address hits after a duplicate upload")
			failures++
		}
	}

	if o.bigOps > 0 {
		failures += runBigUpload(ctx, cl, o.bigOps)
	}
	return failures
}

// replayBaseline replays the trace file in-process, one cell per mode,
// under the same trace:<digest> cache key the server uses. The file is
// validated and indexed once, as the store does on upload, and each
// cell replays fresh streams straight off it.
func replayBaseline(ctx context.Context, path, digest string, modes []string, maxCycles uint64) ([]apitypes.CellResult, error) {
	cfg := gpusim.DefaultConfig()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	idx, err := gpusim.IndexTraceStream(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if idx.NumSMs > cfg.NumSMs {
		return nil, fmt.Errorf("%s has %d SMs but the machine only has %d", path, idx.NumSMs, cfg.NumSMs)
	}
	// Trace streams occupy the first SMs; the rest idle, exactly as
	// the server pads a blob narrower than the machine.
	src := func(numSMs int) []gpusim.Trace {
		out := make([]gpusim.Trace, numSMs)
		copy(out, gpusim.OpenTraceAt(f, idx))
		return out
	}
	jobs := make([]runner.Job, 0, len(modes))
	for _, name := range modes {
		mode, carve, err := gpusim.ParseTagMode(name)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, runner.Job{Key: "trace:" + digest, Mode: mode, Carve: carve, MaxCycles: maxCycles, Traces: src})
	}
	results, err := runner.New(cfg, runner.Options{}).Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	cells := make([]apitypes.CellResult, 0, len(results))
	for i, res := range results {
		cell := apitypes.CellResult{Workload: "trace:" + digest, Mode: modes[i]}
		if res.Err != nil {
			cell.Error = res.Err.Error()
		} else {
			st := res.Stats.WithoutHost()
			cell.Stats = &st
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// runBigUpload streams a synthetic ops-per-SM trace straight from a
// generator goroutine into the upload request — the blob exists only
// on the server's disk, never in this process — then stats and deletes
// it. Returns the failure count.
func runBigUpload(ctx context.Context, cl *client.Client, ops int) int {
	const numSMs = 2
	t0 := time.Now()
	pr, pw := io.Pipe()
	go func() {
		enc, err := gpusim.NewTraceEncoder(pw, numSMs)
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		for sm := 0; sm < numSMs; sm++ {
			if err := enc.BeginSM(uint64(ops)); err != nil {
				pw.CloseWithError(err)
				return
			}
			for i := 0; i < ops; i++ {
				op := gpusim.WarpOp{
					Store:   i%4 == 3,
					Addrs:   []uint64{uint64(0x100000 + sm*1<<20 + i*32)},
					Compute: 1,
				}
				if err := enc.WriteOp(op); err != nil {
					pw.CloseWithError(err)
					return
				}
			}
		}
		pw.CloseWithError(enc.Close())
	}()
	up, err := cl.UploadTrace(ctx, pr)
	if err != nil {
		fmt.Println("traces: FAILED: big synthetic upload:", err)
		return 1
	}
	fmt.Printf("traces: big upload: %d ops/SM × %d SMs → %d bytes streamed in %.0fms as trace:%.12s…\n",
		ops, numSMs, up.Bytes, float64(time.Since(t0))/float64(time.Millisecond), up.Digest)
	failures := 0
	if info, err := cl.TraceStat(ctx, up.Digest); err != nil {
		fmt.Println("traces: FAILED: stat after big upload:", err)
		failures++
	} else if info.TotalOps != uint64(ops)*numSMs {
		fmt.Printf("traces: FAILED: big upload indexed %d ops, want %d\n", info.TotalOps, uint64(ops)*numSMs)
		failures++
	}
	if _, err := cl.DeleteTrace(ctx, up.Digest); err != nil {
		fmt.Println("traces: FAILED: deleting big upload:", err)
		failures++
	}
	return failures
}
