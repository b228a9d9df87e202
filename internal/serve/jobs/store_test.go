package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/gpusim"
	"repro/internal/serve/apitypes"
)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func grid(refs ...string) []apitypes.CellRef {
	out := make([]apitypes.CellRef, len(refs))
	for i, r := range refs {
		parts := strings.SplitN(r, "/", 2)
		out[i] = apitypes.CellRef{Workload: parts[0], Mode: parts[1]}
	}
	return out
}

func cellRes(ref apitypes.CellRef, cycles uint64) apitypes.CellResult {
	return apitypes.CellResult{
		Workload: ref.Workload,
		Mode:     ref.Mode,
		Stats:    &gpusim.Stats{Cycles: cycles, WarpOps: 1},
	}
}

func TestSubmitGetList(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	defer st.Close()

	a, err := st.Submit("alice", apitypes.SweepRequest{Modes: []string{"imt"}}, grid("w1/imt", "w2/imt"))
	if err != nil {
		t.Fatal(err)
	}
	if a.State != apitypes.JobQueued || a.Cells != 2 || a.Tenant != "alice" {
		t.Fatalf("submitted = %+v", a)
	}
	if !strings.HasPrefix(a.ID, "j-") || len(a.ID) != 18 {
		t.Fatalf("id = %q", a.ID)
	}
	b, _ := st.Submit("bob", apitypes.SweepRequest{Modes: []string{"none"}}, grid("w1/none"))

	got, ok := st.Get(a.ID)
	if !ok || !reflect.DeepEqual(got, a) {
		t.Fatalf("Get = %+v, want %+v", got, a)
	}
	if _, ok := st.Get("j-nope"); ok {
		t.Fatal("Get on unknown id succeeded")
	}
	if all := st.List(""); len(all) != 2 || all[0].ID != a.ID || all[1].ID != b.ID {
		t.Fatalf("List order: %+v", all)
	}
	if bobs := st.List("bob"); len(bobs) != 1 || bobs[0].ID != b.ID {
		t.Fatalf("List(bob): %+v", bobs)
	}
}

func TestStateMachineAndFrames(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	defer st.Close()
	cells := grid("w1/imt", "w2/imt")
	job, _ := st.Submit("t", apitypes.SweepRequest{Modes: []string{"imt"}}, cells)

	if err := st.SetState("j-nope", apitypes.JobRunning, ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v", err)
	}
	if err := st.SetState(job.ID, apitypes.JobRunning, ""); err != nil {
		t.Fatal(err)
	}
	if seq, err := st.AppendFrame(job.ID, cellRes(cells[0], 10), false); err != nil || seq != 0 {
		t.Fatalf("frame 0: seq=%d err=%v", seq, err)
	}
	// A duplicate cell is refused without poisoning the WAL.
	if _, err := st.AppendFrame(job.ID, cellRes(cells[0], 10), false); err == nil {
		t.Fatal("duplicate cell accepted")
	}
	if pending := st.PendingCells(job.ID); len(pending) != 1 || pending[0] != cells[1] {
		t.Fatalf("pending = %+v", pending)
	}
	if seq, err := st.AppendFrame(job.ID, cellRes(cells[1], 20), false); err != nil || seq != 1 {
		t.Fatalf("frame 1: seq=%d err=%v", seq, err)
	}
	if err := st.SetState(job.ID, apitypes.JobDone, ""); err != nil {
		t.Fatal(err)
	}
	// Terminal jobs are immutable.
	if err := st.SetState(job.ID, apitypes.JobRunning, ""); !errors.Is(err, ErrTerminal) {
		t.Fatalf("terminal transition: %v", err)
	}
	if _, err := st.AppendFrame(job.ID, cellRes(cells[0], 10), false); !errors.Is(err, ErrTerminal) {
		t.Fatalf("terminal frame: %v", err)
	}
	info, _ := st.Get(job.ID)
	if info.State != apitypes.JobDone || info.DoneCells != 2 || info.FailedCells != 0 {
		t.Fatalf("final info = %+v", info)
	}
	frames, _, ok := st.Frames(job.ID, 1)
	if !ok || len(frames) != 1 || frames[0].Seq != 1 || frames[0].Cell.Stats.Cycles != 20 {
		t.Fatalf("Frames(1) = %+v", frames)
	}
	// The duplicate attempt must not have landed in the log: a reopen
	// replays cleanly.
	st.Close()
	st2 := mustOpen(t, dir)
	defer st2.Close()
	got, _ := st2.Get(job.ID)
	if !reflect.DeepEqual(got, info) {
		t.Fatalf("reopen: %+v, want %+v", got, info)
	}
}

// TestReopenReplayIdentity is the crash-recovery core: WAL write →
// reopen → replay yields identical state, with resume markers on the
// job that was mid-flight.
func TestReopenReplayIdentity(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	cells := grid("w1/imt", "w2/imt", "w3/imt")

	finished, _ := st.Submit("a", apitypes.SweepRequest{Modes: []string{"imt"}}, cells[:2])
	_ = st.SetState(finished.ID, apitypes.JobRunning, "")
	_, _ = st.AppendFrame(finished.ID, cellRes(cells[0], 1), false)
	_, _ = st.AppendFrame(finished.ID, cellRes(cells[1], 2), false)
	_ = st.SetState(finished.ID, apitypes.JobDone, "")

	inflight, _ := st.Submit("b", apitypes.SweepRequest{Modes: []string{"imt"}}, cells)
	_ = st.SetState(inflight.ID, apitypes.JobRunning, "")
	_, _ = st.AppendFrame(inflight.ID, cellRes(cells[0], 3), false)

	wantFinished, _ := st.Get(finished.ID)
	st.Close()

	st2 := mustOpen(t, dir)
	defer st2.Close()
	gotFinished, ok := st2.Get(finished.ID)
	if !ok || !reflect.DeepEqual(gotFinished, wantFinished) {
		t.Fatalf("finished job drifted across reopen:\n got %+v\nwant %+v", gotFinished, wantFinished)
	}
	got, ok := st2.Get(inflight.ID)
	if !ok {
		t.Fatal("in-flight job lost")
	}
	if !got.Resumed || got.ResumedCells != 1 || got.DoneCells != 1 || got.State != apitypes.JobRunning {
		t.Fatalf("in-flight job after replay = %+v", got)
	}
	frames, _, _ := st2.Frames(inflight.ID, 0)
	if len(frames) != 1 || !frames[0].Resumed || frames[0].Seq != 0 {
		t.Fatalf("replayed frames = %+v", frames)
	}
	if pending := st2.PendingCells(inflight.ID); len(pending) != 2 {
		t.Fatalf("pending after replay = %+v", pending)
	}
	// Requeue flips it back to queued and reports it resumed.
	resumed, err := st2.Requeue()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0] != inflight.ID {
		t.Fatalf("resumed = %v", resumed)
	}
	got, _ = st2.Get(inflight.ID)
	if got.State != apitypes.JobQueued {
		t.Fatalf("after requeue: %+v", got)
	}
}

// TestTornFinalRecord: a crash mid-write leaves a torn last line; Open
// must tolerate it, truncate it away, and keep appending cleanly.
func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	job, _ := st.Submit("t", apitypes.SweepRequest{Modes: []string{"imt"}}, grid("w1/imt"))
	st.Close()

	path := filepath.Join(dir, walName)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, torn := range []string{
		`{"t":"state","id":"` + job.ID + `","state":"run`, // cut mid-value, no newline
		`{"t":"cell","id":"` + job.ID + "\n",              // syntactically broken line
		"\x00\x00\x00\x00",                                // binary garbage
	} {
		if err := os.WriteFile(path, append(append([]byte(nil), clean...), torn...), 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir)
		if err != nil {
			t.Fatalf("torn tail %q: %v", torn, err)
		}
		if _, ok := st2.Get(job.ID); !ok {
			t.Fatalf("torn tail %q: job lost", torn)
		}
		if st2.WALBytes() != int64(len(clean)) {
			t.Fatalf("torn tail %q: WALBytes = %d, want %d", torn, st2.WALBytes(), len(clean))
		}
		// The store is fully usable after truncation.
		if err := st2.SetState(job.ID, apitypes.JobRunning, ""); err != nil {
			t.Fatalf("append after truncation: %v", err)
		}
		st2.Close()
		st3 := mustOpen(t, dir)
		if got, _ := st3.Get(job.ID); got.State != apitypes.JobRunning {
			t.Fatalf("torn tail %q: state after reopen = %+v", torn, got)
		}
		st3.Close()
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// errClosed is what mutations of a closed store fail with.
var errClosed = durable.ErrClosed

// faultyFS fails the log once, with ENOSPC: a short write that leaves
// half a record in the file (written through the hook's own handle, as
// the real append is never made), or an fsync after a whole write.
// failTruncate also fails every truncate, so the torn bytes stay.
func faultyFS(t *testing.T, shortWrite, failSync, failTruncate bool) durable.FS {
	return durable.FS{Hook: func(op, path string) error {
		switch {
		case op == "append" && shortWrite:
			shortWrite = false
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteString(`{"t":"job","job":{"id":"j-`); err != nil {
				t.Fatal(err)
			}
			return &os.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
		case op == "fsync" && failSync:
			failSync = false
			return &os.PathError{Op: "sync", Path: path, Err: syscall.ENOSPC}
		case op == "truncate" && failTruncate:
			return &os.PathError{Op: "truncate", Path: path, Err: syscall.EIO}
		}
		return nil
	}}
}

// TestFailedAppendLeavesNoTornRecord: a failed append must cut the log
// back to its last whole record. Records acknowledged after it would
// otherwise sit behind torn bytes: replay stops at the torn record and
// drops the next one, and refuses the log once a second follows. A log
// that cannot be cut back closes the store instead.
func TestFailedAppendLeavesNoTornRecord(t *testing.T) {
	for _, fault := range []string{"short write", "fsync"} {
		t.Run(fault, func(t *testing.T) {
			dir := t.TempDir()
			st := mustOpen(t, dir)
			sweep := apitypes.SweepRequest{Modes: []string{"imt"}}
			first, err := st.Submit("t", sweep, grid("w1/imt"))
			if err != nil {
				t.Fatal(err)
			}
			st.UseFS(faultyFS(t, fault == "short write", fault == "fsync", false))
			if _, err := st.Submit("t", sweep, grid("w2/imt")); !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("submit under %s: %v, want ENOSPC", fault, err)
			}
			want := []string{first.ID}
			for _, cell := range []string{"w3/imt", "w4/imt"} {
				info, err := st.Submit("t", sweep, grid(cell))
				if err != nil {
					t.Fatalf("submit after the failed append: %v", err)
				}
				want = append(want, info.ID)
			}
			fi, err := os.Stat(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			if st.WALBytes() != fi.Size() {
				t.Errorf("WALBytes = %d, log is %d bytes", st.WALBytes(), fi.Size())
			}
			st.Close()

			st2, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer st2.Close()
			var got []string
			for _, info := range st2.List("") {
				got = append(got, info.ID)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("jobs after reopen = %v, want the acknowledged %v", got, want)
			}
		})
	}

	t.Run("truncate fails too", func(t *testing.T) {
		dir := t.TempDir()
		st := mustOpen(t, dir)
		sweep := apitypes.SweepRequest{Modes: []string{"imt"}}
		first, err := st.Submit("t", sweep, grid("w1/imt"))
		if err != nil {
			t.Fatal(err)
		}
		st.UseFS(faultyFS(t, true, false, true))
		if _, err := st.Submit("t", sweep, grid("w2/imt")); !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, syscall.EIO) {
			t.Fatalf("submit with a failed cut-back: %v, want ENOSPC and EIO", err)
		}
		if _, err := st.Submit("t", sweep, grid("w3/imt")); !errors.Is(err, errClosed) {
			t.Fatalf("submit after a failed cut-back: %v, want the store closed", err)
		}
		// Open drops the torn tail the store could not.
		st2 := mustOpen(t, dir)
		defer st2.Close()
		if list := st2.List(""); len(list) != 1 || list[0].ID != first.ID {
			t.Fatalf("jobs after reopen = %+v, want only %s", list, first.ID)
		}
	})
}

// TestMidFileCorruption: damage followed by valid records is real
// corruption, not a torn write — Open must refuse it.
func TestMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	job, _ := st.Submit("t", apitypes.SweepRequest{Modes: []string{"imt"}}, grid("w1/imt"))
	_ = st.SetState(job.ID, apitypes.JobRunning, "")
	st.Close()

	path := filepath.Join(dir, walName)
	data, _ := os.ReadFile(path)
	lines := strings.SplitAfter(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 WAL lines, got %d", len(lines))
	}
	corrupt := "not json at all\n" + lines[1]
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Open on mid-file corruption: %v", err)
	}
}

func TestNextQueuedFairness(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	defer st.Close()
	g := grid("w1/imt")
	sweep := apitypes.SweepRequest{Modes: []string{"imt"}}
	a1, _ := st.Submit("alice", sweep, g)
	a2, _ := st.Submit("alice", sweep, g)
	b1, _ := st.Submit("bob", sweep, g)
	c1, _ := st.Submit("carol", sweep, g)

	// Round-robin from the empty cursor: alice (oldest job), bob, carol,
	// then wrap back to alice's next job.
	wantOrder := []string{a1.ID, b1.ID, c1.ID, a2.ID}
	cursor := ""
	for i, want := range wantOrder {
		id, tenant, ok := st.NextQueued(cursor)
		if !ok {
			t.Fatalf("step %d: nothing queued", i)
		}
		if id != want {
			t.Fatalf("step %d: picked %s, want %s", i, id, want)
		}
		if err := st.SetState(id, apitypes.JobRunning, ""); err != nil {
			t.Fatal(err)
		}
		cursor = tenant
	}
	if _, _, ok := st.NextQueued(cursor); ok {
		t.Fatal("queue should be empty")
	}
}

func TestGCAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	defer st.Close()
	base := time.Now()
	st.now = func() time.Time { return base }
	cells := grid("w1/imt", "w2/imt")
	sweep := apitypes.SweepRequest{Modes: []string{"imt"}}

	old, _ := st.Submit("t", sweep, cells)
	_ = st.SetState(old.ID, apitypes.JobRunning, "")
	_, _ = st.AppendFrame(old.ID, cellRes(cells[0], 1), false)
	_, _ = st.AppendFrame(old.ID, cellRes(cells[1], 2), false)
	_ = st.SetState(old.ID, apitypes.JobDone, "")

	st.now = func() time.Time { return base.Add(2 * time.Hour) }
	fresh, _ := st.Submit("t", sweep, cells)
	_ = st.SetState(fresh.ID, apitypes.JobRunning, "")
	_, _ = st.AppendFrame(fresh.ID, cellRes(cells[0], 3), false)
	live, _ := st.Get(fresh.ID)

	grew := st.WALBytes()
	removed, err := st.GC(base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != old.ID {
		t.Fatalf("removed = %v", removed)
	}
	if _, ok := st.Get(old.ID); ok {
		t.Fatal("GC'd job still visible")
	}
	if st.WALBytes() >= grew {
		t.Fatalf("compaction did not shrink the WAL: %d -> %d", grew, st.WALBytes())
	}
	// Survivors are intact, in the same state, and durable.
	got, ok := st.Get(fresh.ID)
	if !ok || !reflect.DeepEqual(got, live) {
		t.Fatalf("survivor drifted: %+v, want %+v", got, live)
	}
	if err := st.SetState(fresh.ID, apitypes.JobDone, ""); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
	st.Close()
	st2 := mustOpen(t, dir)
	defer st2.Close()
	if _, ok := st2.Get(old.ID); ok {
		t.Fatal("GC'd job resurrected by replay")
	}
	if got, _ := st2.Get(fresh.ID); got.State != apitypes.JobDone || got.DoneCells != 1 {
		t.Fatalf("survivor after reopen = %+v", got)
	}
	// Nothing eligible: GC is a no-op that does not rewrite the log.
	before := st2.WALBytes()
	if removed, err := st2.GC(base.Add(time.Hour)); err != nil || removed != nil {
		t.Fatalf("idle GC: %v %v", removed, err)
	}
	if st2.WALBytes() != before {
		t.Fatal("idle GC rewrote the WAL")
	}
}

func TestClosedStoreRefusesMutations(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	job, _ := st.Submit("t", apitypes.SweepRequest{Modes: []string{"imt"}}, grid("w1/imt"))
	st.Close()
	if _, err := st.Submit("t", apitypes.SweepRequest{}, grid("w2/imt")); !errors.Is(err, errClosed) {
		t.Fatalf("Submit on closed store: %v", err)
	}
	if err := st.SetState(job.ID, apitypes.JobRunning, ""); !errors.Is(err, errClosed) {
		t.Fatalf("SetState on closed store: %v", err)
	}
	// Reads still answer from the replayed state.
	if _, ok := st.Get(job.ID); !ok {
		t.Fatal("read after close failed")
	}
}
