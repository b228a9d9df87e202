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
