package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/serve/apitypes"
)

// perCell adapts a one-cell runner into RunCells: cells run in grid
// order, and the first error abandons the rest.
func perCell(run func(context.Context, apitypes.JobInfo, apitypes.CellRef) (apitypes.CellResult, error)) RunCells {
	return func(ctx context.Context, job apitypes.JobInfo, cells []apitypes.CellRef, emit func(apitypes.CellResult)) {
		for _, ref := range cells {
			res, err := run(ctx, job, ref)
			if err != nil {
				return
			}
			emit(res)
		}
	}
}

// instantRun completes every cell immediately with deterministic stats.
func instantRun(_ context.Context, _ apitypes.JobInfo, ref apitypes.CellRef) (apitypes.CellResult, error) {
	return cellRes(ref, 100), nil
}

func waitState(t *testing.T, st *Store, id string, want apitypes.JobState) apitypes.JobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, ok := st.Get(id)
		if ok && info.State == want {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (now %+v)", id, want, info)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestManagerRunsJobToDone(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	m := NewManager(st, ManagerOptions{Run: perCell(instantRun)})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Kill()

	cells := grid("w1/imt", "w2/imt", "w3/imt")
	info, err := m.Submit("t", apitypes.SweepRequest{Modes: []string{"imt"}}, cells)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, st, info.ID, apitypes.JobDone)
	if final.DoneCells != 3 || final.FailedCells != 0 || final.Resumed {
		t.Fatalf("final = %+v", final)
	}
	frames, _, _ := st.Frames(info.ID, 0)
	if len(frames) != 3 {
		t.Fatalf("frames = %d", len(frames))
	}
	js := m.Stats()
	if js.Submitted != 1 || js.Done != 1 || js.Cells != 3 || js.Queued != 0 || js.Running != 0 {
		t.Fatalf("stats = %+v", js)
	}
}

func TestManagerAllCellsFailedMeansJobFailed(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	m := NewManager(st, ManagerOptions{
		Run: perCell(func(_ context.Context, _ apitypes.JobInfo, ref apitypes.CellRef) (apitypes.CellResult, error) {
			return apitypes.CellResult{Workload: ref.Workload, Mode: ref.Mode, Error: "sim exploded"}, nil
		}),
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	info, _ := m.Submit("t", apitypes.SweepRequest{Modes: []string{"imt"}}, grid("w1/imt", "w2/imt"))
	final := waitState(t, st, info.ID, apitypes.JobFailed)
	if final.FailedCells != 2 || final.Error != "sim exploded" {
		t.Fatalf("final = %+v", final)
	}
	if js := m.Stats(); js.Failed != 1 || js.CellsFailed != 2 {
		t.Fatalf("stats = %+v", js)
	}
}

// blockingRun gates cell execution: every call announces itself on
// started and waits for release (or ctx).
type blockingRun struct {
	started chan string // job tenant per starting cell
	release chan struct{}
}

func newBlockingRun() *blockingRun {
	return &blockingRun{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingRun) run(ctx context.Context, job apitypes.JobInfo, ref apitypes.CellRef) (apitypes.CellResult, error) {
	b.started <- job.Tenant
	select {
	case <-b.release:
		return cellRes(ref, 100), nil
	case <-ctx.Done():
		return apitypes.CellResult{}, ctx.Err()
	}
}

func waitStarted(t *testing.T, b *blockingRun) string {
	t.Helper()
	select {
	case tenant := <-b.started:
		return tenant
	case <-time.After(10 * time.Second):
		t.Fatal("no cell started")
		return ""
	}
}

// TestTenantFairness: with one job worker, queued jobs of tenants
// alice, alice, bob, carol must start alice, bob, carol, alice — the
// scheduler round-robins across tenants instead of draining one
// tenant's backlog first.
func TestTenantFairness(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	hook := newBlockingRun()
	m := NewManager(st, ManagerOptions{Run: perCell(hook.run), JobWorkers: 1})

	sweep := apitypes.SweepRequest{Modes: []string{"imt"}}
	// Submit before Start so the scheduler sees all four at once.
	for _, tenant := range []string{"alice", "alice", "bob", "carol"} {
		if _, err := st.Submit(tenant, sweep, grid("w1/imt")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Kill()

	var order []string
	for i := 0; i < 4; i++ {
		tenant := waitStarted(t, hook)
		order = append(order, tenant)
		if i == 0 {
			close(hook.release) // later cells finish instantly
		}
	}
	want := []string{"alice", "bob", "carol", "alice"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("start order = %v, want %v", order, want)
		}
	}
}

// TestKillAndResume is the in-process crash test: kill the manager with
// a job half done, rebuild store+manager over the same directory, and
// watch the job finish without re-running completed cells.
func TestKillAndResume(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	hook := newBlockingRun()
	var mu sync.Mutex
	ran := make(map[apitypes.CellRef]int)
	run := func(ctx context.Context, job apitypes.JobInfo, ref apitypes.CellRef) (apitypes.CellResult, error) {
		res, err := hook.run(ctx, job, ref)
		if err == nil {
			mu.Lock()
			ran[ref]++
			mu.Unlock()
		}
		return res, err
	}
	m := NewManager(st, ManagerOptions{Run: perCell(run)})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	cells := grid("w1/imt", "w2/imt", "w3/imt")
	info, err := m.Submit("t", apitypes.SweepRequest{Modes: []string{"imt"}}, cells)
	if err != nil {
		t.Fatal(err)
	}
	// Let exactly one cell finish, then die with the second in flight.
	waitStarted(t, hook)
	hook.release <- struct{}{}
	waitStarted(t, hook)
	m.Kill()

	mu.Lock()
	if len(ran) != 1 {
		mu.Unlock()
		t.Fatalf("cells completed before kill = %v, want 1", ran)
	}
	mu.Unlock()

	// Second process over the same WAL.
	st2 := mustOpen(t, dir)
	hook2 := newBlockingRun()
	close(hook2.release)
	run2 := func(ctx context.Context, job apitypes.JobInfo, ref apitypes.CellRef) (apitypes.CellResult, error) {
		mu.Lock()
		ran[ref]++
		mu.Unlock()
		if !job.Resumed {
			t.Error("resumed job not marked Resumed")
		}
		return cellRes(ref, 100), nil
	}
	m2 := NewManager(st2, ManagerOptions{Run: perCell(run2)})
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	defer m2.Kill()

	final := waitState(t, st2, info.ID, apitypes.JobDone)
	if final.DoneCells != 3 || !final.Resumed || final.ResumedCells != 1 {
		t.Fatalf("final = %+v", final)
	}
	mu.Lock()
	defer mu.Unlock()
	for ref, n := range ran {
		if n != 1 {
			t.Errorf("cell %v ran %d times, want 1", ref, n)
		}
	}
	if len(ran) != 3 {
		t.Errorf("cells executed = %d, want 3 total across both lives", len(ran))
	}
	// Frame sequences are contiguous and stable.
	frames, _, _ := st2.Frames(info.ID, 0)
	for i, f := range frames {
		if f.Seq != i {
			t.Errorf("frame %d has seq %d", i, f.Seq)
		}
	}
	if !frames[0].Resumed || frames[1].Resumed || frames[2].Resumed {
		t.Errorf("resumed flags = %v %v %v, want true false false",
			frames[0].Resumed, frames[1].Resumed, frames[2].Resumed)
	}
	if js := m2.Stats(); js.ResumedJobs != 1 {
		t.Errorf("ResumedJobs = %d, want 1", js.ResumedJobs)
	}
}

func TestCancelRunningJob(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	hook := newBlockingRun()
	m := NewManager(st, ManagerOptions{Run: perCell(hook.run)})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	info, _ := m.Submit("t", apitypes.SweepRequest{Modes: []string{"imt"}}, grid("w1/imt", "w2/imt"))
	waitStarted(t, hook)

	got, err := m.Cancel(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != apitypes.JobCanceled {
		t.Fatalf("after cancel: %+v", got)
	}
	// Cancel of a terminal job is a no-op.
	again, err := m.Cancel(info.ID)
	if err != nil || again.State != apitypes.JobCanceled {
		t.Fatalf("second cancel: %+v %v", again, err)
	}
	if _, err := m.Cancel("j-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v", err)
	}
	if js := m.Stats(); js.Canceled != 1 {
		t.Errorf("Canceled = %d", js.Canceled)
	}
}

func TestTTLGC(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	now := time.Now()
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	st.now = clock
	m := NewManager(st, ManagerOptions{Run: perCell(instantRun), TTL: time.Hour, Now: clock})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	info, _ := m.Submit("t", apitypes.SweepRequest{Modes: []string{"imt"}}, grid("w1/imt"))
	waitState(t, st, info.ID, apitypes.JobDone)

	// Within TTL: survives.
	if removed, err := m.GCNow(); err != nil || len(removed) != 0 {
		t.Fatalf("early GC: %v %v", removed, err)
	}
	mu.Lock()
	now = now.Add(2 * time.Hour)
	mu.Unlock()
	removed, err := m.GCNow()
	if err != nil || len(removed) != 1 || removed[0] != info.ID {
		t.Fatalf("late GC: %v %v", removed, err)
	}
	if _, ok := st.Get(info.ID); ok {
		t.Fatal("job survived TTL GC")
	}
}

// TestDrainLeavesWorkDurable: drain with a job mid-flight leaves it
// running in the WAL; the next manager requeues and finishes it.
func TestDrainLeavesWorkDurable(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	hook := newBlockingRun()
	m := NewManager(st, ManagerOptions{Run: perCell(hook.run)})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	info, _ := m.Submit("t", apitypes.SweepRequest{Modes: []string{"imt"}}, grid("w1/imt"))
	waitStarted(t, hook)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st2 := mustOpen(t, dir)
	m2 := NewManager(st2, ManagerOptions{Run: perCell(instantRun)})
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	defer m2.Kill()
	final := waitState(t, st2, info.ID, apitypes.JobDone)
	if !final.Resumed {
		t.Fatalf("final = %+v", final)
	}
}
