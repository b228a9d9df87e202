package jobs

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/apitypes"
)

// RunCells executes a job's pending cells, calling emit once per
// finished cell — never concurrently — and returning after the last
// emit. A failed cell is emitted with Error set and still becomes a
// frame. A cell the runner does not emit is *abandoned* (the manager is
// stopping or the job was canceled): no frame is recorded and it stays
// pending for a future resume.
type RunCells func(ctx context.Context, job apitypes.JobInfo, cells []apitypes.CellRef, emit func(apitypes.CellResult))

// ManagerOptions configures a Manager.
type ManagerOptions struct {
	// Run executes a job's pending cells (required); it alone bounds
	// their concurrency.
	Run RunCells
	// JobWorkers bounds concurrently running jobs (default 2).
	JobWorkers int
	// TTL is how long finished jobs are retained before GC (default 1h).
	TTL time.Duration
	// Registry receives serve_jobs_* metrics (nil = a private one, so
	// Stats still counts).
	Registry *obs.Registry
	// Now is the clock (tests override it; default time.Now).
	Now func() time.Time
}

func (o ManagerOptions) withDefaults() ManagerOptions {
	if o.JobWorkers <= 0 {
		o.JobWorkers = 2
	}
	if o.TTL <= 0 {
		o.TTL = time.Hour
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// Manager schedules the store's queued jobs: round-robin across
// tenants, bounded job concurrency, TTL-based GC, and
// crash-consistent bookkeeping through the store's WAL.
type Manager struct {
	st   *Store
	opts ManagerOptions

	ctx    context.Context
	cancel context.CancelFunc
	wake   chan struct{}
	wg     sync.WaitGroup // scheduler + job goroutines

	mu      sync.Mutex
	running int
	cursor  string // last tenant served (round-robin position)
	cancels map[string]context.CancelFunc

	// Lifetime totals, read back by Stats.
	mSubmitted, mDone, mFailed, mCanceled *obs.Counter
	mResumedJobs, mCells, mCellsResumed   *obs.Counter
	mCellsFailed                          *obs.Counter
	gQueued, gRunning, gWALBytes          *obs.Gauge
}

// NewManager wires a manager over st. Call Start to begin scheduling
// (which first requeues jobs that were in flight when the previous
// process died).
func NewManager(st *Store, opts ManagerOptions) *Manager {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		st:      st,
		opts:    opts,
		ctx:     ctx,
		cancel:  cancel,
		wake:    make(chan struct{}, 1),
		cancels: make(map[string]context.CancelFunc),
	}
	reg := opts.Registry
	m.mSubmitted = reg.Counter("serve_jobs_submitted_total", "jobs submitted")
	m.mDone = reg.Counter("serve_jobs_done_total", "jobs completed")
	m.mFailed = reg.Counter("serve_jobs_failed_total", "jobs failed (every cell failed)")
	m.mCanceled = reg.Counter("serve_jobs_canceled_total", "jobs canceled")
	m.mResumedJobs = reg.Counter("serve_jobs_resumed_total", "jobs resumed after a daemon restart")
	m.mCells = reg.Counter("serve_jobs_cells_total", "job cells completed")
	m.mCellsResumed = reg.Counter("serve_jobs_cells_resumed_total", "job cells recovered without recompute after a restart")
	m.mCellsFailed = reg.Counter("serve_jobs_cells_failed_total", "job cells that finished with an error")
	m.gQueued = reg.Gauge("serve_jobs_queued", "jobs waiting to run")
	m.gRunning = reg.Gauge("serve_jobs_running", "jobs currently running")
	m.gWALBytes = reg.Gauge("serve_jobs_wal_bytes", "job WAL size in bytes")
	return m
}

// Store is the job table the manager schedules from.
func (m *Manager) Store() *Store { return m.st }

// Start requeues crash-interrupted jobs and launches the scheduler and
// GC loops.
func (m *Manager) Start() error {
	resumed, err := m.st.Requeue()
	if err != nil {
		return err
	}
	for _, id := range resumed {
		m.mResumedJobs.Inc()
		// Frames replayed from the WAL are cells recovered without
		// recompute; account for them in this lifetime's counters.
		if info, ok := m.st.Get(id); ok && info.ResumedCells > 0 {
			m.mCellsResumed.Add(uint64(info.ResumedCells))
		}
	}
	m.wg.Add(2)
	go m.scheduleLoop()
	go m.gcLoop()
	m.poke()
	return nil
}

// Submit records a new job and wakes the scheduler.
func (m *Manager) Submit(tenant string, sweep apitypes.SweepRequest, cells []apitypes.CellRef) (apitypes.JobInfo, error) {
	info, err := m.st.Submit(tenant, sweep, cells)
	if err != nil {
		return info, err
	}
	m.mSubmitted.Inc()
	m.poke()
	return info, nil
}

// Cancel moves a job to canceled, interrupting its in-flight cells. On
// a job already finished it is a no-op returning the current snapshot.
func (m *Manager) Cancel(id string) (apitypes.JobInfo, error) {
	info, ok := m.st.Get(id)
	if !ok {
		return apitypes.JobInfo{}, ErrNotFound
	}
	if info.State.Terminal() {
		return info, nil
	}
	if err := m.st.SetState(id, apitypes.JobCanceled, ""); err != nil && err != ErrTerminal {
		return apitypes.JobInfo{}, err
	}
	m.mu.Lock()
	if cancel, ok := m.cancels[id]; ok {
		cancel()
	}
	m.mu.Unlock()
	m.mCanceled.Inc()
	info, _ = m.st.Get(id)
	return info, nil
}

// Drain stops scheduling new jobs and cells, then waits (bounded by
// ctx) for in-flight cells to finish and the store to close. Jobs still
// queued or running stay that way in the WAL and resume on the next
// Open+Start.
func (m *Manager) Drain(ctx context.Context) error {
	m.cancel()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return m.st.Close()
}

// Kill is the SIGKILL-equivalent used by crash-recovery tests: stop
// everything immediately and close the WAL with no final state writes,
// leaving the store exactly as a dead process would.
func (m *Manager) Kill() {
	m.cancel()
	m.wg.Wait()
	_ = m.st.Close()
}

// Stats snapshots the queue for /v1/statsz.
func (m *Manager) Stats() apitypes.JobStats {
	var queued, running int64
	for _, j := range m.st.List("") {
		switch j.State {
		case apitypes.JobQueued:
			queued++
		case apitypes.JobRunning:
			running++
		}
	}
	js := apitypes.JobStats{
		Queued:       queued,
		Running:      running,
		Submitted:    m.mSubmitted.Value(),
		Done:         m.mDone.Value(),
		Failed:       m.mFailed.Value(),
		Canceled:     m.mCanceled.Value(),
		ResumedJobs:  m.mResumedJobs.Value(),
		Cells:        m.mCells.Value(),
		CellsResumed: m.mCellsResumed.Value(),
		CellsFailed:  m.mCellsFailed.Value(),
		WALBytes:     m.st.WALBytes(),
	}
	m.gQueued.Set(float64(queued))
	m.gRunning.Set(float64(running))
	m.gWALBytes.Set(float64(js.WALBytes))
	return js
}

// poke wakes the scheduler without blocking.
func (m *Manager) poke() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// scheduleLoop starts queued jobs whenever workers are free, one wake
// at a time.
func (m *Manager) scheduleLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-m.wake:
		}
		for {
			m.mu.Lock()
			free := m.running < m.opts.JobWorkers
			cursor := m.cursor
			m.mu.Unlock()
			if !free || m.ctx.Err() != nil {
				break
			}
			id, tenant, ok := m.st.NextQueued(cursor)
			if !ok {
				break
			}
			// Transition to running *before* launching the goroutine: the
			// job must leave the queued state synchronously or the next
			// NextQueued would pick it a second time.
			if err := m.st.SetState(id, apitypes.JobRunning, ""); err != nil {
				if errors.Is(err, ErrTerminal) || errors.Is(err, ErrNotFound) {
					continue // canceled or GC'd between pick and start
				}
				break // store closing
			}
			m.mu.Lock()
			m.cursor = tenant
			m.running++
			m.mu.Unlock()
			m.wg.Add(1)
			go m.runJob(id)
		}
	}
}

// runJob executes one job's pending cells and finalizes its state.
func (m *Manager) runJob(id string) {
	defer m.wg.Done()
	defer func() {
		m.mu.Lock()
		m.running--
		delete(m.cancels, id)
		m.mu.Unlock()
		m.poke()
	}()

	info, ok := m.st.Get(id)
	if !ok {
		return
	}
	jctx, jcancel := context.WithCancel(m.ctx)
	defer jcancel()
	m.mu.Lock()
	m.cancels[id] = jcancel
	m.mu.Unlock()
	// A Cancel that landed between the scheduler's running transition
	// and the registration above found no cancel func; honor it now.
	if cur, ok := m.st.Get(id); !ok || cur.State.Terminal() {
		return
	}

	m.opts.Run(jctx, info, m.st.PendingCells(id), func(res apitypes.CellResult) {
		resumed := info.Resumed && res.Cached
		if _, err := m.st.AppendFrame(id, res, resumed); err != nil {
			// Terminal (canceled underneath us) or closed: drop.
			return
		}
		m.mCells.Inc()
		if resumed {
			m.mCellsResumed.Inc()
		}
		if res.Error != "" {
			m.mCellsFailed.Inc()
		}
	})

	cur, ok := m.st.Get(id)
	if !ok || cur.State.Terminal() {
		return // canceled (or GC'd) while running
	}
	if jctx.Err() != nil || cur.DoneCells < cur.Cells {
		// Stopping mid-job: stay "running" in the WAL so the next daemon
		// requeues and resumes it.
		return
	}
	if cur.Cells > 0 && cur.FailedCells == cur.Cells {
		first := ""
		if frames, _, ok := m.st.Frames(id, 0); ok && len(frames) > 0 {
			first = frames[0].Cell.Error
		}
		if m.st.SetState(id, apitypes.JobFailed, first) == nil {
			m.mFailed.Inc()
		}
		return
	}
	if m.st.SetState(id, apitypes.JobDone, "") == nil {
		m.mDone.Inc()
	}
}

// gcLoop removes finished jobs older than TTL and compacts the WAL
// once a minute.
func (m *Manager) gcLoop() {
	defer m.wg.Done()
	t := time.NewTicker(time.Minute)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
			_, _ = m.st.GC(m.opts.Now().Add(-m.opts.TTL))
		}
	}
}

// GCNow runs one GC sweep immediately (tests and drain paths).
func (m *Manager) GCNow() ([]string, error) {
	return m.st.GC(m.opts.Now().Add(-m.opts.TTL))
}
