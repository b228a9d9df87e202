package jobs

import (
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
		st.fs = fs
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
