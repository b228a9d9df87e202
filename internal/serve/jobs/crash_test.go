package jobs

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/durable/durabletest"
	"repro/internal/serve/apitypes"
)

// TestCompactionCrashPoints stops GC's WAL compaction at every
// filesystem operation. Reopening must succeed and list exactly the
// jobs from before the GC or from after it.
func TestCompactionCrashPoints(t *testing.T) {
	var dir string
	var before, after []apitypes.JobInfo
	durabletest.Enumerate(t, func(fs durable.FS) error {
		dir = t.TempDir()
		st := mustOpen(t, dir)
		cells := grid("w1/imt", "w2/imt")
		sweep := apitypes.SweepRequest{Modes: []string{"imt"}}
		old, _ := st.Submit("t", sweep, cells)
		_, _ = st.AppendFrame(old.ID, cellRes(cells[0], 1), false)
		_ = st.SetState(old.ID, apitypes.JobDone, "")
		live, _ := st.Submit("t", sweep, cells)
		_ = st.SetState(live.ID, apitypes.JobRunning, "")
		_, _ = st.AppendFrame(live.ID, cellRes(cells[1], 2), false)
		st.Close()
		// List as a reopened store does: replay marks unfinished jobs
		// resumed.
		st = mustOpen(t, dir)
		defer st.Close()
		before = st.List("")
		st.UseFS(fs)
		removed, err := st.GC(time.Now().Add(time.Hour))
		if err == nil && len(removed) != 1 {
			t.Fatalf("GC removed %v", removed)
		}
		after = st.List("")
		return err
	}, func(k int, err error) {
		st, oerr := Open(dir)
		if oerr != nil {
			t.Fatalf("crash at op %d: reopen: %v", k, oerr)
		}
		defer st.Close()
		got := st.List("")
		if !reflect.DeepEqual(got, after) && (err == nil || !reflect.DeepEqual(got, before)) {
			t.Fatalf("crash at op %d (GC err %v): reopened list %+v\nbefore %+v\nafter %+v", k, err, got, before, after)
		}
	})
}

// TestAppendCrashPoints stops a job's first appends — Submit, SetState
// and AppendFrame — at every filesystem operation. Reopening always
// succeeds, and every acknowledged mutation survives it.
func TestAppendCrashPoints(t *testing.T) {
	var (
		dir   string
		id    string
		acked int // mutations acknowledged: submit, running, frame
	)
	cells := grid("w1/imt")
	durabletest.Enumerate(t, func(fs durable.FS) error {
		dir, id, acked = t.TempDir(), "", 0
		st := mustOpen(t, dir)
		defer st.Close()
		st.UseFS(fs)
		info, err := st.Submit("t", apitypes.SweepRequest{Modes: []string{"imt"}}, cells)
		if err != nil {
			return err
		}
		id, acked = info.ID, 1
		if err := st.SetState(id, apitypes.JobRunning, ""); err != nil {
			return err
		}
		acked = 2
		if _, err := st.AppendFrame(id, cellRes(cells[0], 1), false); err != nil {
			return err
		}
		acked = 3
		return nil
	}, func(k int, err error) {
		st, oerr := Open(dir)
		if oerr != nil {
			t.Fatalf("crash at op %d: reopen: %v", k, oerr)
		}
		defer st.Close()
		got, ok := st.Get(id)
		if acked >= 1 && !ok || acked >= 2 && got.State != apitypes.JobRunning || acked >= 3 && got.DoneCells != 1 {
			t.Fatalf("crash at op %d (err %v): %d mutations acknowledged, reopened job %+v", k, err, acked, got)
		}
	})
}

// TestOpenSweepsTemps: Open removes the temp files a compaction that
// crashed before its rename left in the jobs directory.
func TestOpenSweepsTemps(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir).Close()
	tmp := filepath.Join(dir, ".tmp-123")
	if err := os.WriteFile(tmp, []byte(`{"t":"job"`), 0o644); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir).Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived Open: %v", err)
	}
}
