package jobs

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/serve/apitypes"
)

// ErrNotFound is returned for operations on an unknown job id.
var ErrNotFound = errors.New("jobs: no such job")

// ErrTerminal is returned for mutations of a job already in a terminal
// state.
var ErrTerminal = errors.New("jobs: job already finished")

// walName is the store's single log file inside its directory.
const walName = "wal.log"

// Store is the durable job table: an in-memory map of jobs backed by
// the append-only WAL. Every mutation appends its record before the
// in-memory state changes; state transitions are additionally fsynced,
// so a job can never be observed in a state the disk does not know.
type Store struct {
	mu  sync.Mutex
	log *durable.Log
	now func() time.Time

	st *walState
}

// Open replays dir's WAL (creating the log and directory when absent)
// and returns the store positioned for appends. A torn final record —
// the write a crash interrupted — is truncated away; corruption earlier
// in the log is an error. Temp files a crashed compaction left behind
// are removed.
func Open(dir string) (*Store, error) {
	if err := (durable.FS{}).RemoveTemps(dir); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	st, good, err := replay(data)
	if err != nil {
		return nil, err
	}
	log, err := durable.FS{}.OpenLog(path, good)
	if err != nil {
		return nil, err
	}
	return &Store{log: log, now: time.Now, st: st}, nil
}

// UseFS routes the store's appends, cut-backs and compactions through
// fs: a fault-injection seam for tests.
func (s *Store) UseFS(fs durable.FS) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.FS = fs
}

// Close flushes and closes the WAL. Further mutations fail with
// durable.ErrClosed; reads keep working on the replayed state.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// WALBytes reports the current log size.
func (s *Store) WALBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Size()
}

// append writes one record (and its newline) to the WAL, fsyncing when
// sync is set. The caller holds s.mu and must only mutate the
// in-memory state after a nil return.
func (s *Store) append(rec *record, sync bool) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return s.log.Append(append(blob, '\n'), sync)
}

// Submit records a new job and returns its snapshot. The grid must
// already be expanded and validated by the caller.
func (s *Store) Submit(tenant string, sweep apitypes.SweepRequest, cells []apitypes.CellRef) (apitypes.JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := newJobID()
	for s.st.jobs[id] != nil {
		id = newJobID()
	}
	jr := &jobRecord{
		ID:              id,
		Tenant:          tenant,
		Sweep:           sweep,
		Cells:           cells,
		SubmittedUnixMs: s.now().UnixMilli(),
	}
	rec := record{T: recJob, Job: jr}
	if err := s.append(&rec, true); err != nil {
		return apitypes.JobInfo{}, err
	}
	if err := s.st.apply(&rec); err != nil {
		return apitypes.JobInfo{}, err
	}
	return s.st.jobs[id].Info(), nil
}

// SetState records a transition. queued→running and any→terminal are
// the scheduler's moves; running→queued is the restart requeue. Errors:
// ErrNotFound, ErrTerminal (mutating a finished job), or the WAL write
// failure.
func (s *Store) SetState(id string, state apitypes.JobState, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.st.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if j.State.Terminal() {
		return ErrTerminal
	}
	rec := record{T: recState, ID: id, State: state, Error: errMsg, UnixMs: s.now().UnixMilli()}
	if err := s.append(&rec, true); err != nil {
		return err
	}
	if err := s.st.apply(&rec); err != nil {
		return err
	}
	s.notify(j)
	return nil
}

// AppendFrame records one completed cell and returns its sequence
// number. resumed marks a result recovered without recompute (a cache
// hit inside a resumed job). Frames of finished jobs are refused.
func (s *Store) AppendFrame(id string, res apitypes.CellResult, resumed bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.st.jobs[id]
	if !ok {
		return 0, ErrNotFound
	}
	if j.State.Terminal() {
		return 0, ErrTerminal
	}
	// Refuse duplicates before touching the log: a rejected apply after a
	// successful append would leave a record replay chokes on.
	if ref := (apitypes.CellRef{Workload: res.Workload, Mode: res.Mode}); j.done[ref] {
		return 0, fmt.Errorf("jobs: %s: cell %s/%s already recorded", id, ref.Workload, ref.Mode)
	}
	seq := len(j.Frames)
	rec := record{T: recCell, ID: id, Seq: seq, Resumed: resumed, Result: &res}
	if err := s.append(&rec, false); err != nil {
		return 0, err
	}
	if err := s.st.apply(&rec); err != nil {
		return 0, err
	}
	if resumed {
		j.ResumedCells++
	}
	s.notify(j)
	return seq, nil
}

// Get snapshots one job.
func (s *Store) Get(id string) (apitypes.JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.st.jobs[id]
	if !ok {
		return apitypes.JobInfo{}, false
	}
	return j.Info(), true
}

// List snapshots every job in submission order, optionally filtered by
// tenant ("" = all).
func (s *Store) List(tenant string) []apitypes.JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]apitypes.JobInfo, 0, len(s.st.order))
	for _, id := range s.st.order {
		j := s.st.jobs[id]
		if tenant != "" && j.Tenant != tenant {
			continue
		}
		out = append(out, j.Info())
	}
	return out
}

// Frames returns a copy of the job's frames with sequence ≥ from, plus
// the job snapshot the copy is consistent with.
func (s *Store) Frames(id string, from int) ([]apitypes.JobFrame, apitypes.JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.st.jobs[id]
	if !ok {
		return nil, apitypes.JobInfo{}, false
	}
	if from < 0 {
		from = 0
	}
	var frames []apitypes.JobFrame
	if from < len(j.Frames) {
		frames = append(frames, j.Frames[from:]...)
	}
	return frames, j.Info(), true
}

// Watch returns a channel closed on the job's next mutation (frame
// appended or state changed) — the stream handler's wakeup.
func (s *Store) Watch(id string) (<-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.st.jobs[id]
	if !ok {
		return nil, false
	}
	return j.change, true
}

// notify wakes watchers of j. Caller holds s.mu.
func (s *Store) notify(j *Job) {
	close(j.change)
	j.change = make(chan struct{})
}

// PendingCells returns the grid cells without completion markers, in
// grid order — the work a (re)started job still owes.
func (s *Store) PendingCells(id string) []apitypes.CellRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.st.jobs[id]
	if !ok {
		return nil
	}
	var out []apitypes.CellRef
	for _, ref := range j.Cells {
		if !j.done[ref] {
			out = append(out, ref)
		}
	}
	return out
}

// NextQueued picks the next job to start: tenants in lexicographic
// order, starting strictly after afterTenant (wrapping), each tenant's
// oldest queued job first. Returns ok=false when nothing is queued.
func (s *Store) NextQueued(afterTenant string) (id, tenant string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	oldest := make(map[string]string) // tenant → oldest queued job id
	var tenants []string
	for _, jid := range s.st.order {
		j := s.st.jobs[jid]
		if j.State != apitypes.JobQueued {
			continue
		}
		if _, seen := oldest[j.Tenant]; !seen {
			oldest[j.Tenant] = jid
			tenants = append(tenants, j.Tenant)
		}
	}
	if len(tenants) == 0 {
		return "", "", false
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		if t > afterTenant {
			return oldest[t], t, true
		}
	}
	// Wrap to the smallest tenant.
	return oldest[tenants[0]], tenants[0], true
}

// Requeue flips every replayed in-flight (running) job back to queued
// so the scheduler re-picks it. Returns the requeued plus
// already-queued resumed job ids. Called once at manager start.
func (s *Store) Requeue() (resumed []string, err error) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.st.order))
	for _, id := range s.st.order {
		j := s.st.jobs[id]
		if j.State == apitypes.JobRunning {
			ids = append(ids, id)
		} else if j.State == apitypes.JobQueued && j.Resumed {
			resumed = append(resumed, id)
		}
	}
	s.mu.Unlock()
	for _, id := range ids {
		if err := s.SetState(id, apitypes.JobQueued, ""); err != nil {
			return resumed, err
		}
		resumed = append(resumed, id)
	}
	return resumed, nil
}

// GC removes terminal jobs finished before cutoff, appending tombstones
// and compacting the WAL when anything was removed. Returns the removed
// ids.
func (s *Store) GC(cutoff time.Time) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var removed []string
	cutoffMs := cutoff.UnixMilli()
	for _, id := range append([]string(nil), s.st.order...) {
		j := s.st.jobs[id]
		if !j.State.Terminal() || j.FinishedUnixMs > cutoffMs {
			continue
		}
		rec := record{T: recGC, ID: id}
		if err := s.append(&rec, false); err != nil {
			return removed, err
		}
		if err := s.st.apply(&rec); err != nil {
			return removed, err
		}
		removed = append(removed, id)
	}
	if len(removed) == 0 {
		return nil, nil
	}
	return removed, s.compactLocked()
}

// compactLocked rewrites the WAL from live state. Caller holds s.mu.
func (s *Store) compactLocked() error {
	var buf bytes.Buffer
	if err := encodeState(&buf, s.st); err != nil {
		return err
	}
	return s.log.Replace(buf.Bytes())
}

// newJobID draws a random 16-hex-digit job id ("j-…"), unique across
// restarts without persisting a counter.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: crypto/rand: %v", err))
	}
	return "j-" + hex.EncodeToString(b[:])
}
