package tracestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/durable/durabletest"
)

// TestPutCrashPoints stops an upload, and a content-address hit after
// it, at every filesystem operation, then reopens the store. Every Put
// that returned nil is resident; every resident trace replays bytes
// that hash to its digest; no temp file or stray blob or sidecar
// survives; and usage equals the resident bytes.
func TestPutCrashPoints(t *testing.T) {
	resident, upload := testBlob(t, 1, 8), testBlob(t, 2, 8)
	var (
		dir       string
		committed []string
	)
	durabletest.Enumerate(t, func(fs durable.FS) error {
		dir = t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		committed = []string{mustPut(t, s, resident).Digest}
		s.fs = fs
		info, _, err := s.Put(bytes.NewReader(upload))
		if err == nil {
			committed = append(committed, info.Digest)
			_, _, err = s.Put(bytes.NewReader(resident))
		}
		return err
	}, func(k int, err error) {
		checkStore(t, k, dir, committed)
	})
}

// TestDeleteCrashPoints stops a Delete at every filesystem operation,
// then reopens the store. The trace is either absent or replays bytes
// that hash to its digest, it is absent whenever Delete returned nil,
// and no stray file survives.
func TestDeleteCrashPoints(t *testing.T) {
	var dir, digest string
	durabletest.Enumerate(t, func(fs durable.FS) error {
		dir = t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		digest = mustPut(t, s, testBlob(t, 1, 8)).Digest
		s.fs = fs
		_, err = s.Delete(digest)
		return err
	}, func(k int, err error) {
		s := checkStore(t, k, dir, nil)
		if _, serr := s.Stat(digest); err == nil && serr == nil {
			t.Fatalf("crash at op %d: Delete returned nil but the trace is resident", k)
		}
	})
}

// checkStore reopens dir, asserts the store invariants after a crash at
// op k and returns the reopened store.
func checkStore(t *testing.T, k int, dir string, committed []string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("crash at op %d: reopen: %v", k, err)
	}
	for _, d := range committed {
		if _, err := s.Stat(d); err != nil {
			t.Fatalf("crash at op %d: committed trace lost: %v", k, err)
		}
	}
	var total int64
	files := map[string]bool{}
	for _, info := range s.List() {
		rep, err := s.OpenReplay(info.Digest)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		n, err := io.Copy(h, rep.Blob())
		rep.Close()
		if err != nil || n != info.Bytes || hex.EncodeToString(h.Sum(nil)) != info.Digest {
			t.Fatalf("crash at op %d: %s replays %d bytes hashing elsewhere (%v)", k, info.Digest, n, err)
		}
		total += info.Bytes
		files[s.blobPath(info.Digest)], files[s.metaPath(info.Digest)] = true, true
	}
	if st := s.Stats(); st.Bytes != total {
		t.Fatalf("crash at op %d: Stats().Bytes = %d, resident blobs hold %d", k, st.Bytes, total)
	}
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !files[path] {
			t.Fatalf("crash at op %d: stray file %s after reopen", k, path)
		}
		return nil
	})
	return s
}
