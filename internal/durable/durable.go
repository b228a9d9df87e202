// Package durable is the one layer through which this module's stores
// change files. A commit writes a temp file, fsyncs it, renames it onto
// the destination and fsyncs the directory: once Commit or WriteFile
// returns nil the new contents survive power loss, and until then the
// old ones (or nothing) stay. A Log's appends land whole or are cut
// back; Remove fsyncs the directory. DESIGN.md "Durable commit"
// describes the protocol and what its crash tests prove.
package durable

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
)

// tmpPrefix starts the name of every temp file Create makes.
const tmpPrefix = ".tmp-"

// FS performs file changes. The zero value is the real filesystem.
type FS struct {
	// Hook, when set, runs before each filesystem operation with its
	// name — "create", "write", "fsync", "mkdir", "rename", "fsync-dir",
	// "remove", "append" or "truncate" — and the path it acts on (the
	// directory for create, the destination for rename). A non-nil
	// return fails the operation without performing it. It is a test
	// seam for fault injection and crash-point enumeration; closing a
	// file changes nothing on disk and is not an operation.
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
		t.f, err = os.CreateTemp(dir, tmpPrefix+"*")
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
		err = t.fs.MkdirAll(dir)
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
	if err := fs.MkdirAll(filepath.Dir(dst)); err != nil {
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

// MkdirAll creates dir and its missing parents, fsyncing the parent of
// each directory it creates so the new entry is durable too.
func (fs FS) MkdirAll(dir string) error {
	if _, err := os.Stat(dir); err == nil {
		return nil
	}
	if parent := filepath.Dir(dir); parent != dir {
		if err := fs.MkdirAll(parent); err != nil {
			return err
		}
	}
	err := fs.do("mkdir", dir, func() error { return os.Mkdir(dir, 0o755) })
	if err != nil && !os.IsExist(err) {
		return err
	}
	return fs.syncDir(filepath.Dir(dir))
}

// Remove removes path and fsyncs its directory. A path already gone is
// not an error: the fsync still makes its removal durable, so a retry
// completes a Remove whose fsync failed.
func (fs FS) Remove(path string) error {
	err := fs.do("remove", path, func() error { return os.Remove(path) })
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return fs.syncDir(filepath.Dir(path))
}

// RemoveTemps removes the temp files Create left in dir when a process
// stopped before Commit or Discard. They were never visible under
// another name, so their removal needs no directory fsync.
func (fs FS) RemoveTemps(dir string) error {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	for _, de := range ents { // what ReadDir read before any error
		path := filepath.Join(dir, de.Name())
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			if err := fs.do("remove", path, func() error { return os.Remove(path) }); err != nil {
				return err
			}
		}
	}
	return err
}

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("durable: log closed")

// Log is an append-only file whose appends land whole or not at all.
// It is not safe for concurrent use.
type Log struct {
	FS FS // carries every operation; tests may swap it between calls

	path string
	f    *os.File // nil once closed
	size int64
}

// OpenLog opens the log at path for appends. A missing log is created
// empty by WriteFile, so its directory entry is durable before the
// first append; a log longer than size (the torn tail a crash left
// after the caller's last whole record) is durably cut back to size.
func (fs FS) OpenLog(path string, size int64) (*Log, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		if err := fs.WriteFile(path, nil); err != nil {
			return nil, err
		}
	}
	l := &Log{FS: fs, path: path}
	if err := l.reopen(); err != nil {
		return nil, err
	}
	if l.size > size {
		l.size = size
		if err := l.cut(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// reopen points the append handle at whatever file path names now.
func (l *Log) reopen() error {
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, fi.Size()
	return nil
}

// Size reports the log's length in bytes: everything appended whole.
func (l *Log) Size() int64 { return l.size }

// Append writes p at the end of the log and, when sync is set, fsyncs
// it. If the write or the fsync fails, the log is durably truncated
// back to its size before the append, so no later append lands behind
// torn or unacknowledged bytes; a log that cannot be cut back closes.
func (l *Log) Append(p []byte, sync bool) error {
	if l.f == nil {
		return ErrClosed
	}
	err := l.FS.do("append", l.path, func() error {
		_, err := l.f.Write(p)
		return err
	})
	if err == nil && sync {
		err = l.FS.do("fsync", l.path, l.f.Sync)
	}
	if err != nil {
		return errors.Join(err, l.cut())
	}
	l.size += int64(len(p))
	return nil
}

// cut durably truncates the file to l.size, closing the log if it
// cannot: appending past bytes of unknown state could bury records
// already acknowledged.
func (l *Log) cut() error {
	err := l.FS.do("truncate", l.path, func() error { return l.f.Truncate(l.size) })
	if err == nil {
		err = l.FS.do("fsync", l.path, l.f.Sync)
	}
	if err != nil {
		l.f.Close()
		l.f = nil
	}
	return err
}

// Replace durably rewrites the log as data (see WriteFile), then
// appends to whatever the file now is: data once the rename landed,
// even if the directory fsync after it failed, and the old contents
// otherwise. A log that cannot be reopened closes.
func (l *Log) Replace(data []byte) error {
	if l.f == nil {
		return ErrClosed
	}
	err := l.FS.WriteFile(l.path, data)
	l.f.Close()
	l.f = nil
	return errors.Join(err, l.reopen())
}

// Close fsyncs and closes the log. Later appends fail with ErrClosed;
// closing a closed log does nothing.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.FS.do("fsync", l.path, l.f.Sync)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
