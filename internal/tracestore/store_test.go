package tracestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/gpusim"
)

// testBlob encodes a small trace whose content (and therefore digest)
// is parameterized by seed. Addresses stay inside one varint width
// band so equal op counts give equal blob sizes regardless of seed —
// the quota tests size their quotas in multiples of one blob.
func testBlob(t testing.TB, seed uint64, ops int) []byte {
	t.Helper()
	ws := make([]gpusim.WarpOp, ops)
	for i := range ws {
		ws[i] = gpusim.WarpOp{
			Store:   i%2 == 0,
			Addrs:   []uint64{0x10000 + seed*4096 + uint64(i)*32, 0x20000 + seed*64},
			Compute: int(seed % 7),
		}
	}
	var buf bytes.Buffer
	err := gpusim.WriteTraces(&buf, []gpusim.Trace{&gpusim.SliceTrace{Ops: ws}, nil})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustPut(t *testing.T, s *Store, blob []byte) Info {
	t.Helper()
	info, _, err := s.Put(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestPutStatListDelete(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	blob := testBlob(t, 1, 10)
	info, created, err := s.Put(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first Put reported a content-address hit")
	}
	if !ValidDigest(info.Digest) || info.Bytes != int64(len(blob)) || info.NumSMs != 2 || info.TotalOps != 10 {
		t.Fatalf("info = %+v", info)
	}
	// Idempotent re-upload: same digest, created=false, hit counted.
	again, created, err := s.Put(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if created || again.Digest != info.Digest {
		t.Fatalf("re-upload: created=%v digest=%s, want hit on %s", created, again.Digest, info.Digest)
	}
	if st := s.Stats(); st.Puts != 2 || st.PutHits != 1 || st.Blobs != 1 || st.Bytes != int64(len(blob)) {
		t.Fatalf("stats = %+v", st)
	}
	got, err := s.Stat(info.Digest)
	if err != nil || got.Digest != info.Digest {
		t.Fatalf("Stat: %+v, %v", got, err)
	}
	if _, err := s.Stat(strings.Repeat("0", 64)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat(absent) = %v, want ErrNotFound", err)
	}
	if l := s.List(); len(l) != 1 || l[0].Digest != info.Digest {
		t.Fatalf("List = %+v", l)
	}
	if _, err := s.Delete(info.Digest); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(info.Digest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.Blobs != 0 || st.Bytes != 0 || st.Deletes != 1 {
		t.Fatalf("stats after delete = %+v", st)
	}
}

func TestPutRejectsInvalidStream(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{
		[]byte("not a trace"),
		[]byte("IMTTRC1\n\x02\x05"),    // truncated
		append(testBlob(t, 1, 3), 'x'), // trailing data
	} {
		if _, _, err := s.Put(bytes.NewReader(b)); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("Put(%q...) = %v, want ErrBadTrace", b[:min(8, len(b))], err)
		}
	}
	if st := s.Stats(); st.Rejected != 3 || st.Blobs != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Rejected uploads must leave no temp litter behind.
	tmps, _ := os.ReadDir(filepath.Join(s.dir, "tmp"))
	if len(tmps) != 0 {
		t.Fatalf("%d temp files left after rejected uploads", len(tmps))
	}
}

func TestReplayStreamsAndPins(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	blob := testBlob(t, 3, 17)
	info := mustPut(t, s, blob)

	rep, err := s.OpenReplay(info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	// Replay must match an independent decode of the uploaded bytes,
	// twice over (each Traces call is an independent rewound stream).
	idx, err := gpusim.IndexTraceStream(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	ref := gpusim.OpenTraceAt(bytes.NewReader(blob), idx)[0]
	var wantOps []gpusim.WarpOp
	for {
		op, ok := ref.Next()
		if !ok {
			break
		}
		wantOps = append(wantOps, op)
	}
	for round := 0; round < 2; round++ {
		traces := rep.Traces(4)
		if len(traces) != 4 || traces[2] != nil || traces[3] != nil {
			t.Fatalf("round %d: %d traces, extras not idle", round, len(traces))
		}
		var got []gpusim.WarpOp
		for {
			op, ok := traces[0].Next()
			if !ok {
				break
			}
			got = append(got, op)
		}
		if len(got) != len(wantOps) {
			t.Fatalf("round %d: replayed %d ops, want %d", round, len(got), len(wantOps))
		}
		for i := range got {
			if got[i].Store != wantOps[i].Store || got[i].Compute != wantOps[i].Compute ||
				len(got[i].Addrs) != len(wantOps[i].Addrs) || got[i].Addrs[0] != wantOps[i].Addrs[0] {
				t.Fatalf("round %d: op %d = %+v, want %+v", round, i, got[i], wantOps[i])
			}
		}
	}
	// Raw blob download matches the upload byte for byte.
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(rep.Blob()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw.Bytes(), blob) {
		t.Fatal("Blob() bytes differ from the uploaded bytes")
	}
	// Pinned: DELETE must refuse while the replay is open.
	if _, err := s.Delete(info.Digest); !errors.Is(err, ErrInUse) {
		t.Fatalf("Delete(pinned) = %v, want ErrInUse", err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rep.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Delete(info.Digest); err != nil {
		t.Fatalf("Delete after Close: %v", err)
	}
}

func TestDeleteRespectsInUseCallback(t *testing.T) {
	held := map[string]bool{}
	s, err := Open(Options{Dir: t.TempDir(), InUse: func(d string) bool { return held[d] }})
	if err != nil {
		t.Fatal(err)
	}
	info := mustPut(t, s, testBlob(t, 9, 5))
	held[info.Digest] = true
	if _, err := s.Delete(info.Digest); !errors.Is(err, ErrInUse) {
		t.Fatalf("Delete(job-referenced) = %v, want ErrInUse", err)
	}
	held[info.Digest] = false
	if _, err := s.Delete(info.Digest); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecovery simulates every mid-commit crash state the commit
// protocol can produce and checks Open recovers each one.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	committed := mustPut(t, s, testBlob(t, 1, 8))

	// Crash state 1: an upload died mid-stream — a temp file exists,
	// nothing is committed. It must never become visible and must be
	// swept on re-open.
	if err := os.WriteFile(filepath.Join(dir, "tmp", "put-crashed"), testBlob(t, 2, 4)[:7], 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash state 2: blob renamed, sidecar never written. The blob is
	// complete and validated — Open must resurrect it.
	orphanBlob := testBlob(t, 3, 6)
	orphanInfo := mustPut(t, s, orphanBlob)
	if err := os.Remove(filepath.Join(dir, "meta", orphanInfo.Digest+".json")); err != nil {
		t.Fatal(err)
	}
	// Crash state 3: delete removed the blob, died before the meta.
	halfDeleted := mustPut(t, s, testBlob(t, 4, 6))
	if err := os.Remove(filepath.Join(dir, "blobs", halfDeleted.Digest[:2], halfDeleted.Digest+".trc")); err != nil {
		t.Fatal(err)
	}
	// Crash state 4: a corrupt file squatting under a digest name that
	// does not hash to it must be dropped, not resurrected.
	bogus := strings.Repeat("ab", 32)
	if err := os.MkdirAll(filepath.Join(dir, "blobs", bogus[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blobs", bogus[:2], bogus+".trc"), testBlob(t, 5, 3), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Stat(committed.Digest); err != nil {
		t.Fatalf("committed blob lost across crash: %v", err)
	}
	got, err := s2.Stat(orphanInfo.Digest)
	if err != nil {
		t.Fatalf("blob-without-meta not resurrected: %v", err)
	}
	if got.Bytes != int64(len(orphanBlob)) || got.NumSMs != orphanInfo.NumSMs {
		t.Fatalf("resurrected info = %+v, want %+v", got, orphanInfo)
	}
	if _, err := s2.Stat(halfDeleted.Digest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("half-deleted blob resurrected: %v", err)
	}
	if _, err := s2.Stat(bogus); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt squatter admitted: %v", err)
	}
	tmps, _ := os.ReadDir(filepath.Join(dir, "tmp"))
	if len(tmps) != 0 {
		t.Fatalf("%d orphaned temp files survived re-open", len(tmps))
	}
	if _, err := os.Stat(filepath.Join(dir, "blobs", bogus[:2], bogus+".trc")); !os.IsNotExist(err) {
		t.Fatal("corrupt blob file not removed")
	}
	// Usage accounting must reflect exactly the two survivors.
	if st := s2.Stats(); st.Blobs != 2 || st.Bytes != committed.Bytes+got.Bytes {
		t.Fatalf("recovered stats = %+v", st)
	}
	// The resurrected blob must replay.
	rep, err := s2.OpenReplay(orphanInfo.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if op, ok := rep.Traces(2)[0].Next(); !ok || len(op.Addrs) != 2 {
		t.Fatalf("resurrected replay broken: %+v %v", op, ok)
	}
}

func TestQuotaEviction(t *testing.T) {
	blobA := testBlob(t, 1, 40)
	blobB := testBlob(t, 2, 40)
	blobC := testBlob(t, 3, 40)
	per := int64(len(blobA))
	dir := t.TempDir()
	held := map[string]bool{}
	s, err := Open(Options{Dir: dir, QuotaBytes: per*2 + 4, InUse: func(d string) bool { return held[d] }})
	if err != nil {
		t.Fatal(err)
	}
	// A single blob larger than the whole quota is rejected outright
	// (before spilling the rest of the stream).
	if _, _, err := s.Put(bytes.NewReader(testBlob(t, 9, 5000))); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("oversized Put = %v, want ErrOverQuota", err)
	}

	a := mustPut(t, s, blobA)
	time.Sleep(10 * time.Millisecond) // LRU clock is mtime-based
	b := mustPut(t, s, blobB)
	// Touch A (re-upload hit) so B becomes the LRU victim.
	time.Sleep(10 * time.Millisecond)
	mustPut(t, s, blobA)
	time.Sleep(10 * time.Millisecond)
	c := mustPut(t, s, blobC)
	if _, err := s.Stat(b.Digest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU victim B still resident: %v", err)
	}
	if _, err := s.Stat(a.Digest); err != nil {
		t.Fatalf("recently used A evicted: %v", err)
	}
	if st := s.Stats(); st.Evictions != 1 || st.Blobs != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// Quota eviction must never evict a trace referenced by a queued
	// job (InUse) or pinned by an open replay — even when that means
	// rejecting the new upload.
	held[a.Digest] = true
	rep, err := s.OpenReplay(c.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, _, err := s.Put(bytes.NewReader(testBlob(t, 4, 40))); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("Put with every blob referenced = %v, want ErrOverQuota", err)
	}
	if _, err := s.Stat(a.Digest); err != nil {
		t.Fatalf("job-referenced A evicted: %v", err)
	}
	if _, err := s.Stat(c.Digest); err != nil {
		t.Fatalf("pinned C evicted: %v", err)
	}
	// Release the job reference: the next Put may now evict A.
	held[a.Digest] = false
	d := mustPut(t, s, testBlob(t, 4, 40))
	if _, err := s.Stat(a.Digest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("released A not evicted: %v", err)
	}
	if _, err := s.Stat(d.Digest); err != nil {
		t.Fatal(err)
	}
}

func TestTTLGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	old := mustPut(t, s, testBlob(t, 1, 5))
	fresh := mustPut(t, s, testBlob(t, 2, 5))
	// Age the old blob past the TTL via its LRU clock.
	past := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "blobs", old.Digest[:2], old.Digest+".trc"), past, past); err != nil {
		t.Fatal(err)
	}
	// In-memory lastUsed is authoritative until re-open; re-open picks
	// the aged mtime up and the Open-time GC sweeps it.
	s2, err := Open(Options{Dir: dir, TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Stat(old.Digest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired blob survived Open GC: %v", err)
	}
	if _, err := s2.Stat(fresh.Digest); err != nil {
		t.Fatalf("fresh blob swept: %v", err)
	}
	// Explicit GC with a far-future now sweeps the rest.
	if n := s2.GC(time.Now().Add(3 * time.Hour)); n != 1 {
		t.Fatalf("GC removed %d, want 1", n)
	}
	if st := s2.Stats(); st.Blobs != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestValidDigest(t *testing.T) {
	if !ValidDigest(strings.Repeat("0a", 32)) {
		t.Fatal("valid digest rejected")
	}
	for _, bad := range []string{"", "abc", strings.Repeat("0A", 32), strings.Repeat("0g", 32), strings.Repeat("0a", 33)} {
		if ValidDigest(bad) {
			t.Fatalf("ValidDigest(%q) accepted", bad)
		}
	}
}
