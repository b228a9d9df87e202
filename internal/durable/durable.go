// Package durable is the one crash-safe way this module replaces a
// file: write a temp file, fsync it, rename it onto the destination and
// fsync the destination's directory. Once Commit or WriteFile returns
// nil the new contents survive power loss; until then the destination
// holds its old contents (or nothing). DESIGN.md "Durable commit"
// describes the protocol and what its crash tests prove.
package durable

import (
	"os"
	"path/filepath"
)

// FS performs durable commits. The zero value is the real filesystem.
type FS struct {
	// Hook, when set, runs before each filesystem operation with its
	// name — "create", "write", "fsync", "mkdir", "rename", "fsync-dir"
	// or "remove" — and the path it acts on (the directory for create,
	// the destination for rename). A non-nil return fails the operation
	// without performing it. It is a test seam for fault injection and
	// crash-point enumeration; closing a file changes nothing on disk
	// and is not an operation.
	Hook func(op, path string) error
}

func (fs FS) do(op, path string, fn func() error) error {
	if fs.Hook != nil {
		if err := fs.Hook(op, path); err != nil {
			return err
		}
	}
	return fn()
}

// File is a temp file whose contents become visible only by Commit.
type File struct {
	fs   FS
	f    *os.File
	done bool
}

// Create opens a new temp file in dir, which must exist on the
// destination's filesystem.
func (fs FS) Create(dir string) (*File, error) {
	t := &File{fs: fs}
	err := fs.do("create", dir, func() (err error) {
		t.f, err = os.CreateTemp(dir, ".tmp-*")
		return err
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Write appends p to the temp file.
func (t *File) Write(p []byte) (n int, err error) {
	err = t.fs.do("write", t.f.Name(), func() (err error) {
		n, err = t.f.Write(p)
		return err
	})
	return n, err
}

// Commit makes the written bytes the contents of dst: fsync and close
// the temp file, create dst's directory if missing, rename the temp
// file onto dst and fsync dst's directory. If the rename is not
// reached, the temp file is removed and dst is untouched.
func (t *File) Commit(dst string) error {
	dir := filepath.Dir(dst)
	err := t.fs.do("fsync", t.f.Name(), t.f.Sync)
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = t.fs.mkdirAll(dir)
	}
	if err == nil {
		err = t.fs.do("rename", dst, func() error { return os.Rename(t.f.Name(), dst) })
	}
	if err != nil {
		t.Discard()
		return err
	}
	t.done = true
	return t.fs.syncDir(dir)
}

// Discard closes and removes the temp file unless it was committed, so
// it may be deferred right after Create.
func (t *File) Discard() {
	if !t.done {
		t.done = true
		t.f.Close()
		_ = t.fs.do("remove", t.f.Name(), func() error { return os.Remove(t.f.Name()) })
	}
}

// WriteFile durably replaces dst with data, through a temp file in
// dst's directory (created if missing).
func (fs FS) WriteFile(dst string, data []byte) error {
	if err := fs.mkdirAll(filepath.Dir(dst)); err != nil {
		return err
	}
	t, err := fs.Create(filepath.Dir(dst))
	if err != nil {
		return err
	}
	if _, err := t.Write(data); err != nil {
		t.Discard()
		return err
	}
	return t.Commit(dst)
}

// WriteFile is FS.WriteFile on the real filesystem.
func WriteFile(dst string, data []byte) error { return FS{}.WriteFile(dst, data) }

// syncDir fsyncs dir, making the entries created or renamed in it
// durable.
func (fs FS) syncDir(dir string) error {
	return fs.do("fsync-dir", dir, func() error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	})
}

// mkdirAll creates dir and its missing parents, fsyncing the parent of
// each directory it creates so the new entry is durable too.
func (fs FS) mkdirAll(dir string) error {
	if _, err := os.Stat(dir); err == nil {
		return nil
	}
	if parent := filepath.Dir(dir); parent != dir {
		if err := fs.mkdirAll(parent); err != nil {
			return err
		}
	}
	err := fs.do("mkdir", dir, func() error { return os.Mkdir(dir, 0o755) })
	if err != nil && !os.IsExist(err) {
		return err
	}
	return fs.syncDir(filepath.Dir(dir))
}
