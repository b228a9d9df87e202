package durable_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/durable"
	"repro/internal/durable/durabletest"
)

// TestWriteFileOps pins the full op sequence of a commit into a
// directory chain that does not exist yet: each new directory's parent
// is fsynced, then the file is written, fsynced, renamed and its
// directory fsynced.
func TestWriteFileOps(t *testing.T) {
	root := t.TempDir()
	dst := filepath.Join(root, "a", "b", "f.json")
	var ops []string
	fs := durable.FS{Hook: func(op, path string) error {
		if op == "write" || op == "fsync" {
			path = filepath.Base(filepath.Dir(path)) // the temp name is random
		}
		ops = append(ops, op+" "+path)
		return nil
	}}
	if err := fs.WriteFile(dst, []byte("new")); err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(root, "a"), filepath.Join(root, "a", "b")
	want := []string{
		"mkdir " + a, "fsync-dir " + root,
		"mkdir " + b, "fsync-dir " + a,
		"create " + b, "write b", "fsync b",
		"rename " + dst, "fsync-dir " + b,
	}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("ops:\n%q\nwant\n%q", ops, want)
	}
	if got, err := os.ReadFile(dst); err != nil || string(got) != "new" {
		t.Fatalf("dst = %q, %v", got, err)
	}
}

// TestWriteFileCrashPoints replaces an existing file under every crash
// point: the destination always holds the old or the new bytes, and
// nothing but the destination is left once the commit completes.
func TestWriteFileCrashPoints(t *testing.T) {
	var dir string
	durabletest.Enumerate(t, func(fs durable.FS) error {
		dir = t.TempDir()
		if err := durable.WriteFile(filepath.Join(dir, "f"), []byte("old")); err != nil {
			t.Fatal(err)
		}
		return fs.WriteFile(filepath.Join(dir, "f"), []byte("new contents"))
	}, func(k int, err error) {
		got, rerr := os.ReadFile(filepath.Join(dir, "f"))
		if rerr != nil || (string(got) != "old" && string(got) != "new contents") {
			t.Fatalf("crash at op %d: dst = %q, %v", k, got, rerr)
		}
		if err == nil && string(got) != "new contents" {
			t.Fatalf("crash at op %d: commit reported but dst = %q", k, got)
		}
		if ents, _ := os.ReadDir(dir); err == nil && len(ents) != 1 {
			t.Fatalf("completed commit left %d entries", len(ents))
		}
	})
}

// TestCommitFailureRemovesTemp: a failure before the rename leaves the
// destination as it was and no temp file behind; Discard after a
// successful Commit is a no-op.
func TestCommitFailureRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "f")
	if err := durable.WriteFile(dst, []byte("old")); err != nil {
		t.Fatal(err)
	}
	fs := durable.FS{Hook: func(op, _ string) error {
		if op == "fsync" {
			return syscall.EIO
		}
		return nil
	}}
	tmp, err := fs.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Commit(dst); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Commit = %v, want EIO", err)
	}
	if got, _ := os.ReadFile(dst); string(got) != "old" {
		t.Fatalf("dst = %q after a failed commit", got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("failed commit left %d entries", len(ents))
	}

	tmp, err = durable.FS{}.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Commit(dst); err != nil {
		t.Fatal(err)
	}
	tmp.Discard()
	if got, _ := os.ReadFile(dst); string(got) != "new" {
		t.Fatalf("Discard after Commit changed dst to %q", got)
	}
}

// TestLogOps pins a Log's op sequence: opening a log with a torn tail
// cuts it back (truncate → fsync), a synced append is append → fsync, an
// unsynced one is a bare append, and a failed append is cut back
// (truncate → fsync) to the last whole append. A log that cannot be cut
// back closes.
func TestLogOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("rec1\ntor"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ops []string
	var fail map[string]error // each fails its op once
	fs := durable.FS{Hook: func(op, _ string) error {
		ops = append(ops, op)
		err := fail[op]
		delete(fail, op)
		return err
	}}
	step := func(name string, fn func() error, wantErr error, want ...string) {
		t.Helper()
		ops = nil
		if err := fn(); !errors.Is(err, wantErr) {
			t.Fatalf("%s: err = %v, want %v", name, err, wantErr)
		}
		if !reflect.DeepEqual(ops, want) {
			t.Fatalf("%s: ops %q, want %q", name, ops, want)
		}
	}
	var l *durable.Log
	step("open", func() (err error) { l, err = fs.OpenLog(path, 5); return err }, nil, "truncate", "fsync")
	step("synced append", func() error { return l.Append([]byte("rec2\n"), true) }, nil, "append", "fsync")
	step("unsynced append", func() error { return l.Append([]byte("rec3\n"), false) }, nil, "append")
	fail = map[string]error{"fsync": syscall.EIO}
	step("failed fsync", func() error { return l.Append([]byte("rec4\n"), true) }, syscall.EIO, "append", "fsync", "truncate", "fsync")
	fail = map[string]error{"append": syscall.ENOSPC}
	step("failed append", func() error { return l.Append([]byte("rec4\n"), true) }, syscall.ENOSPC, "append", "truncate", "fsync")
	if got, _ := os.ReadFile(path); string(got) != "rec1\nrec2\nrec3\n" || l.Size() != int64(len(got)) {
		t.Fatalf("log = %q, Size %d after failed appends", got, l.Size())
	}
	fail = map[string]error{"append": syscall.ENOSPC, "truncate": syscall.EIO}
	step("failed cut-back", func() error { return l.Append([]byte("rec4\n"), false) }, syscall.EIO, "append", "truncate")
	step("closed", func() error { return l.Append([]byte("rec4\n"), false) }, durable.ErrClosed)
	step("close", l.Close, nil)
}

// TestRemoveOps: Remove fsyncs the directory after the removal, also
// for a path already gone; RemoveTemps removes only Create's temp
// files, without a directory fsync.
func TestRemoveOps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"keep", ".tmp-123"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var ops []string
	fs := durable.FS{Hook: func(op, path string) error {
		ops = append(ops, op+" "+path)
		return nil
	}}
	if err := fs.RemoveTemps(dir); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dir, "keep")
	for i := 0; i < 2; i++ {
		if err := fs.Remove(keep); err != nil {
			t.Fatalf("Remove #%d: %v", i, err)
		}
	}
	want := []string{
		"remove " + filepath.Join(dir, ".tmp-123"),
		"remove " + keep, "fsync-dir " + dir,
		"remove " + keep, "fsync-dir " + dir,
	}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("ops:\n%q\nwant\n%q", ops, want)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("%d entries left", len(ents))
	}
	if err := fs.RemoveTemps(filepath.Join(dir, "missing")); err != nil {
		t.Fatalf("RemoveTemps(missing): %v", err)
	}
}
