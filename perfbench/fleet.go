package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve/apitypes"
	"repro/internal/serve/client"
)

// proc is one daemon under test, started from the checkout's binaries
// with an ephemeral loopback port.
type proc struct {
	name   string
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	err    error // Wait's result; read only after exited is closed
}

// startProc launches bin with args plus -addr/-addr-file and returns
// once the process has written its bound address.
func startProc(ctx context.Context, dir, name, bin string, args ...string) (*proc, error) {
	addrFile := filepath.Join(dir, name+".addr")
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed outright must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if blob, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(blob, []byte("\n")) {
			p.url = "http://" + strings.TrimSpace(string(blob))
			return p, nil
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("%s exited before listening: %v (log: %s)", name, p.err, filepath.Join(dir, name+".log"))
		case <-ctx.Done():
			_ = p.stop() // the start already failed; this only reaps the process
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = p.stop() // the start already failed; this only reaps the process
			return nil, fmt.Errorf("%s did not listen within 30s", name)
		}
	}
}

// stop drains the process with SIGTERM and waits for it to exit,
// killing it if the drain takes longer than 15 seconds.
func (p *proc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("%s did not drain within 15s", p.name)
	}
	if p.err != nil {
		return fmt.Errorf("%s: %w", p.name, p.err)
	}
	return nil
}

// vmHWM is the process's peak resident set in MB, from /proc.
func (p *proc) vmHWM() (float64, error) {
	return readVmHWM(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

func readVmHWM(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM in %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// fleet is the topology under test: one imtgw in front of two imtd
// shards, each shard with -j 1 and fresh cache and trace directories.
type fleet struct {
	shards []*proc
	gw     *proc
	ready  time.Time // when the gateway's /v1/healthz first answered
}

const numShards = 2

// startupGrace is how long after the gateway turns healthy stop waits
// before signalling it. imtgw starts serving a moment before it installs
// its SIGTERM handler, so a SIGTERM right after its first healthy answer
// can kill it undrained; only the set-ups that are released at once
// come that close.
const startupGrace = 100 * time.Millisecond

// startFleet starts the shards, then the gateway, and returns once the
// gateway's /v1/healthz is green.
func startFleet(ctx context.Context, b *bench, dir string) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < numShards; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, errors.Join(err, f.stop())
		}
		p, err := startProc(ctx, sdir, "imtd", filepath.Join(b.bin, "imtd"),
			"-j", "1", "-cache-dir", filepath.Join(sdir, "cache"), "-trace-dir", filepath.Join(sdir, "traces"))
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.shards = append(f.shards, p)
		urls = append(urls, p.url)
	}
	for _, s := range f.shards {
		if err := waitHealthy(ctx, s.url); err != nil {
			return nil, errors.Join(err, f.stop())
		}
	}
	gw, err := startProc(ctx, dir, "imtgw", filepath.Join(b.bin, "imtgw"), "-shards", strings.Join(urls, ","), "-debug")
	if err != nil {
		return nil, errors.Join(err, f.stop())
	}
	f.gw = gw
	if err := waitHealthy(ctx, gw.url); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	f.ready = time.Now()
	return f, nil
}

// stop drains the gateway first, then the shards, and waits for all.
func (f *fleet) stop() error {
	var errs []error
	if f.gw != nil {
		if !f.ready.IsZero() {
			time.Sleep(time.Until(f.ready.Add(startupGrace)))
		}
		errs = append(errs, f.gw.stop())
	}
	for _, s := range f.shards {
		errs = append(errs, s.stop())
	}
	return errors.Join(errs...)
}

// peakRSSMB sums the VmHWM of the gateway and every shard.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range append([]*proc{f.gw}, f.shards...) {
		mb, err := p.vmHWM()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

func waitHealthy(ctx context.Context, url string) error {
	cl := newClient(url)
	deadline := time.Now().Add(30 * time.Second)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := cl.Health(hctx)
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %w", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newClient returns an API client that never retries — a 429 or 5xx
// is a failed operation, not something to hide — and opens at most
// maxConns connections.
func newClient(url string) *client.Client {
	cl := client.New(url)
	cl.MaxRetries = 0
	cl.HTTPClient = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
	}}
	return cl
}

// timedSetup runs setup reps times, keeping the last result and
// releasing the others, and records as setup_s the median wall time of
// the repetitions in which the host stole the least CPU (quieterHalf).
// Each repetition starts from nothing: fresh directories, fresh daemons.
func timedSetup[T any](b *bench, reps int, setup func(dir string) (T, error), release func(T) error) (T, error) {
	var (
		kept  T
		times []float64
		steal []float64
	)
	meter := newStealMeter()
	for i := 0; i < reps; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return kept, err
		}
		runtime.GC() // no repetition pays for garbage left by the one before
		meter.next()
		t0 := time.Now()
		v, err := setup(dir)
		if err != nil {
			return kept, err
		}
		times = append(times, time.Since(t0).Seconds())
		steal = append(steal, meter.next())
		if i < reps-1 {
			if err := release(v); err != nil {
				return kept, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return kept, err
			}
			continue
		}
		kept = v
	}
	idx := make([]int, reps)
	for i := range idx {
		idx[i] = i
	}
	var quiet []float64
	for _, k := range quieterHalf(idx, steal) {
		quiet = append(quiet, times[k])
	}
	b.set("setup_s", median(quiet), "s", fmt.Sprintf("median of the %d quieter of %d set-ups", len(quiet), reps))
	return kept, nil
}

// statDeltas is the change in the fleet's /v1/statsz counters across
// one stretch of traffic, plus the gateway's trace-push counter.
type statDeltas struct {
	cells, cacheHits, coalesce, rejected, timeouts uint64
	rerouted, tracePushes                          uint64
	puts, putHits                                  uint64
	shardCells                                     []uint64
}

type statPoint struct {
	snap   apitypes.GatewaySnapshot
	pushes uint64
}

func (f *fleet) statPoint(ctx context.Context) (statPoint, error) {
	snap, err := newClient(f.gw.url).GatewayStats(ctx)
	if err != nil {
		return statPoint{}, fmt.Errorf("gateway statsz: %w", err)
	}
	if snap.Gateway == nil || len(snap.Shards) != numShards {
		return statPoint{}, fmt.Errorf("gateway statsz: want %d shard rows, got %d", numShards, len(snap.Shards))
	}
	for _, s := range snap.Shards {
		if s.Stats == nil {
			return statPoint{}, fmt.Errorf("gateway statsz: shard %s: %s", s.Shard, s.Error)
		}
	}
	pushes, err := scrapeCounter(ctx, f.gw.url+"/metrics", "serve_gw_trace_pushes_total")
	if err != nil {
		return statPoint{}, err
	}
	return statPoint{snap: snap, pushes: pushes}, nil
}

func deltaOf(a, b statPoint) *statDeltas {
	s0, s1 := a.snap.StatsSnapshot, b.snap.StatsSnapshot
	d := &statDeltas{
		cells:       s1.Cells - s0.Cells,
		cacheHits:   s1.CacheHits - s0.CacheHits,
		coalesce:    s1.CoalesceHits - s0.CoalesceHits,
		rejected:    s1.Rejected - s0.Rejected,
		timeouts:    s1.Timeouts - s0.Timeouts,
		rerouted:    b.snap.Gateway.Rerouted - a.snap.Gateway.Rerouted,
		tracePushes: b.pushes - a.pushes,
	}
	if s0.Traces != nil && s1.Traces != nil {
		d.puts = s1.Traces.Puts - s0.Traces.Puts
		d.putHits = s1.Traces.PutHits - s0.Traces.PutHits
	}
	for i := range b.snap.Shards {
		d.shardCells = append(d.shardCells, b.snap.Shards[i].Stats.Cells-a.snap.Shards[i].Stats.Cells)
	}
	return d
}

// measureDeltas runs traffic between two statsz snapshots of the
// fleet and keeps the difference for the per-layer counts.
func (b *bench) measureDeltas(f *fleet, traffic func() error) error {
	before, err := f.statPoint(b.ctx)
	if err != nil {
		return err
	}
	if err := traffic(); err != nil {
		return err
	}
	after, err := f.statPoint(b.ctx)
	if err != nil {
		return err
	}
	b.deltas = deltaOf(before, after)
	return nil
}

// scrapeCounter reads one unlabelled counter from a Prometheus text
// endpoint (imtgw -debug mounts /metrics).
func scrapeCounter(ctx context.Context, url, name string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("scraping %s: %s", url, resp.Status)
	}
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 8<<20))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", name, err)
			}
			return uint64(v), nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s not found at %s", name, url)
}
