package tracestore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/gpusim"
	"repro/internal/obs"
)

// Sentinel errors; the serving layer maps them to typed HTTP failures
// (404 trace_not_found, 413 trace_quota, 409 trace_in_use, 400).
var (
	ErrNotFound  = errors.New("tracestore: trace not found")
	ErrOverQuota = errors.New("tracestore: over quota")
	ErrInUse     = errors.New("tracestore: trace in use")
	ErrBadTrace  = errors.New("tracestore: invalid trace stream")
)

// ValidDigest reports whether s is a well-formed trace id: the
// lowercase SHA-256 hex digest of the blob bytes.
func ValidDigest(s string) bool {
	if len(s) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Options configures a Store.
type Options struct {
	// Dir is the store root; created if absent.
	Dir string
	// QuotaBytes caps total committed blob bytes; 0 means unlimited.
	// Put evicts least-recently-used unreferenced blobs to make room
	// and rejects uploads that cannot fit even after eviction.
	QuotaBytes int64
	// TTL expires blobs unused for longer than this on the next GC
	// (Open, Put, or an explicit GC call); 0 means never.
	TTL time.Duration
	// InUse, when non-nil, vetoes eviction/GC/delete of a digest that
	// is externally referenced — e.g. by a queued job — even when its
	// replay refcount is zero.
	InUse func(digest string) bool
	// Registry receives tracestore_* metrics; nil uses a private one.
	Registry *obs.Registry
}

// Info describes one committed trace.
type Info struct {
	Digest   string
	Bytes    int64
	NumSMs   int
	TotalOps uint64
	Created  time.Time
	LastUsed time.Time
}

// Stats is a point-in-time snapshot of store usage and lifetime
// counters (mirrored in the tracestore_* metrics).
type Stats struct {
	Blobs      int64
	Bytes      int64
	QuotaBytes int64
	Puts       uint64
	PutHits    uint64
	Rejected   uint64
	Evictions  uint64
	Deletes    uint64
	GCRemoved  uint64
}

// metaFile is the persisted sidecar for one blob.
type metaFile struct {
	Digest        string            `json:"digest"`
	CreatedUnixMs int64             `json:"created_unix_ms"`
	Index         gpusim.TraceIndex `json:"index"`
}

type entry struct {
	idx      gpusim.TraceIndex
	created  time.Time
	lastUsed time.Time
	refs     int
}

// Store is a content-addressed trace blob store. Safe for concurrent
// use.
type Store struct {
	opts Options
	dir  string
	fs   durable.FS // zero outside tests

	mu      sync.Mutex
	entries map[string]*entry
	usage   int64

	mPuts      *obs.Counter
	mPutHits   *obs.Counter
	mRejected  *obs.Counter
	mEvictions *obs.Counter
	mDeletes   *obs.Counter
	mGCRemoved *obs.Counter
	gBlobs     *obs.Gauge
	gBytes     *obs.Gauge
}

func (s *Store) tmpDir() string { return filepath.Join(s.dir, "tmp") }
func (s *Store) blobPath(digest string) string {
	return filepath.Join(s.dir, "blobs", digest[:2], digest+".trc")
}
func (s *Store) metaPath(digest string) string {
	return filepath.Join(s.dir, "meta", digest+".json")
}

// Open opens (creating if needed) the store rooted at opts.Dir and
// recovers from any crash state: in-flight temp files are removed, a
// blob that lost its sidecar is re-validated and re-indexed, a sidecar
// that lost its blob is dropped. Finishes with a TTL GC pass.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("tracestore: empty dir")
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	s := &Store{opts: opts, dir: opts.Dir, entries: map[string]*entry{}}
	reg := opts.Registry
	s.mPuts = reg.Counter("tracestore_puts_total", "trace uploads accepted (including content-address hits)")
	s.mPutHits = reg.Counter("tracestore_put_hits_total", "trace uploads resolved as content-address hits")
	s.mRejected = reg.Counter("tracestore_put_rejected_total", "trace uploads rejected (invalid stream or over quota)")
	s.mEvictions = reg.Counter("tracestore_evictions_total", "blobs evicted by the LRU quota")
	s.mDeletes = reg.Counter("tracestore_deletes_total", "blobs removed by explicit DELETE")
	s.mGCRemoved = reg.Counter("tracestore_gc_removed_total", "blobs and orphans removed by GC (TTL sweep and crash recovery)")
	s.gBlobs = reg.Gauge("tracestore_blobs", "committed trace blobs resident in the store")
	s.gBytes = reg.Gauge("tracestore_bytes", "committed trace bytes resident in the store")

	for _, d := range []string{s.tmpDir(), filepath.Join(s.dir, "blobs"), filepath.Join(s.dir, "meta")} {
		if err := s.fs.MkdirAll(d); err != nil {
			return nil, err
		}
	}
	// Crash recovery 1: any temp file is an upload that never
	// committed — invisible to readers, safe to drop.
	tmps, err := os.ReadDir(s.tmpDir())
	if err != nil {
		return nil, err
	}
	for _, de := range tmps {
		if err := s.fs.Remove(filepath.Join(s.tmpDir(), de.Name())); err == nil {
			s.mGCRemoved.Inc()
		}
	}
	// Load sidecars; crash recovery 2: meta without blob is the tail
	// of an interrupted delete.
	metas, err := os.ReadDir(filepath.Join(s.dir, "meta"))
	if err != nil {
		return nil, err
	}
	for _, de := range metas {
		digest, ok := metaDigest(de.Name())
		if !ok {
			// A sidecar commit's temp file: never visible, safe to drop.
			if s.fs.Remove(filepath.Join(s.dir, "meta", de.Name())) == nil {
				s.mGCRemoved.Inc()
			}
			continue
		}
		mf, err := readMeta(s.metaPath(digest))
		st, statErr := os.Stat(s.blobPath(digest))
		if err != nil || mf.Digest != digest || statErr != nil || st.Size() != mf.Index.Bytes {
			if s.fs.Remove(s.metaPath(digest)) == nil {
				s.mGCRemoved.Inc()
			}
			continue
		}
		s.entries[digest] = &entry{
			idx:      mf.Index,
			created:  time.UnixMilli(mf.CreatedUnixMs),
			lastUsed: st.ModTime(),
		}
		s.usage += mf.Index.Bytes
	}
	// Crash recovery 3: blob without meta — commit renamed the blob
	// but crashed before the sidecar landed. The blob passed
	// validation before commit; re-verify digest and index, then
	// resurrect it.
	blobDirs, err := os.ReadDir(filepath.Join(s.dir, "blobs"))
	if err != nil {
		return nil, err
	}
	for _, bd := range blobDirs {
		if !bd.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, "blobs", bd.Name()))
		if err != nil {
			continue
		}
		for _, de := range files {
			digest, ok := blobDigest(de.Name())
			if !ok || s.entries[digest] != nil {
				continue
			}
			if s.resurrect(digest) != nil && s.fs.Remove(s.blobPath(digest)) == nil {
				s.mGCRemoved.Inc()
			}
		}
	}
	s.gcLocked(time.Now())
	s.updateGauges()
	return s, nil
}

func metaDigest(name string) (string, bool) {
	d, ok := strings.CutSuffix(name, ".json")
	if !ok || !ValidDigest(d) {
		return "", false
	}
	return d, true
}

func blobDigest(name string) (string, bool) {
	d, ok := strings.CutSuffix(name, ".trc")
	if !ok || !ValidDigest(d) {
		return "", false
	}
	return d, true
}

func readMeta(path string) (metaFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return metaFile{}, err
	}
	var mf metaFile
	if err := json.Unmarshal(b, &mf); err != nil {
		return metaFile{}, err
	}
	return mf, nil
}

// resurrect re-validates and re-indexes a blob whose sidecar is
// missing, rewriting the sidecar. The digest is re-verified: a blob
// whose content does not hash to its name is corrupt and rejected.
func (s *Store) resurrect(digest string) error {
	f, err := os.Open(s.blobPath(digest))
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	idx, err := gpusim.IndexTraceStream(io.TeeReader(f, h))
	if err != nil {
		return err
	}
	if hex.EncodeToString(h.Sum(nil)) != digest {
		return fmt.Errorf("tracestore: blob %s content does not match its digest", digest)
	}
	st, err := os.Stat(s.blobPath(digest))
	if err != nil {
		return err
	}
	now := time.Now()
	if err := s.writeMeta(metaFile{Digest: digest, CreatedUnixMs: now.UnixMilli(), Index: idx}); err != nil {
		return err
	}
	s.entries[digest] = &entry{idx: idx, created: now, lastUsed: st.ModTime()}
	s.usage += idx.Bytes
	return nil
}

// writeMeta commits a sidecar.
func (s *Store) writeMeta(mf metaFile) error {
	b, err := json.Marshal(mf)
	if err != nil {
		return err
	}
	return s.fs.WriteFile(s.metaPath(mf.Digest), b)
}

// quotaWriter fails an upload the moment it exceeds the whole-store
// quota: no single blob can ever fit, so there is no point spilling
// the rest of a multi-GB stream to disk first. werr keeps w's write
// error, which tells a failing disk apart from a malformed stream.
type quotaWriter struct {
	w    io.Writer
	n    int64
	max  int64 // 0 = unlimited
	werr error
}

func (q *quotaWriter) Write(p []byte) (int, error) {
	q.n += int64(len(p))
	if q.max > 0 && q.n > q.max {
		return 0, fmt.Errorf("%w: upload exceeds store quota (%d bytes)", ErrOverQuota, q.max)
	}
	n, err := q.w.Write(p)
	q.werr = err
	return n, err
}

// Put streams one IMTTRC upload into the store: the bytes are hashed,
// validated (every op decoded through bounded chunks), and spilled to
// a temp file in a single pass, then committed under their digest.
// created=false means the trace was already resident (a content-address
// hit); the upload is discarded and the blob's LRU clock touched.
func (s *Store) Put(r io.Reader) (Info, bool, error) {
	tmp, err := s.fs.Create(s.tmpDir())
	if err != nil {
		return Info{}, false, err
	}
	defer tmp.Discard()
	h := sha256.New()
	qw := &quotaWriter{w: io.MultiWriter(h, tmp), max: s.opts.QuotaBytes}
	idx, err := gpusim.IndexTraceStream(io.TeeReader(r, qw))
	if err != nil {
		if qw.werr != nil {
			// The disk failed (ENOSPC, EIO), not the stream.
			return Info{}, false, qw.werr
		}
		s.mRejected.Inc()
		if errors.Is(err, ErrOverQuota) {
			return Info{}, false, err
		}
		return Info{}, false, fmt.Errorf("%w: %w", ErrBadTrace, err)
	}
	digest := hex.EncodeToString(h.Sum(nil))
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[digest]; ok {
		s.touchLocked(digest, e, now)
		s.mPuts.Inc()
		s.mPutHits.Inc()
		return s.infoLocked(digest, e), false, nil
	}
	if err := s.makeRoomLocked(idx.Bytes); err != nil {
		if errors.Is(err, ErrOverQuota) {
			s.mRejected.Inc()
		}
		return Info{}, false, err
	}
	// Commit: blob first, sidecar second. A crash between the two
	// leaves a blob-without-meta, which Open resurrects — the upload
	// stays committed either way.
	if err := tmp.Commit(s.blobPath(digest)); err != nil {
		return Info{}, false, err
	}
	os.Chtimes(s.blobPath(digest), now, now)
	if err := s.writeMeta(metaFile{Digest: digest, CreatedUnixMs: now.UnixMilli(), Index: idx}); err != nil {
		// The blob is committed and valid; the next Open resurrects
		// the sidecar. Fail the request anyway: the caller must not
		// trust a store state we could not fully persist.
		return Info{}, false, err
	}
	e := &entry{idx: idx, created: now, lastUsed: now}
	s.entries[digest] = e
	s.usage += idx.Bytes
	s.mPuts.Inc()
	s.updateGauges()
	return s.infoLocked(digest, e), true, nil
}

// makeRoomLocked evicts least-recently-used unpinned blobs until need
// bytes fit under the quota, or fails with ErrOverQuota.
func (s *Store) makeRoomLocked(need int64) error {
	if s.opts.QuotaBytes <= 0 {
		return nil
	}
	if need > s.opts.QuotaBytes {
		return fmt.Errorf("%w: trace (%d bytes) exceeds store quota (%d bytes)", ErrOverQuota, need, s.opts.QuotaBytes)
	}
	for s.usage+need > s.opts.QuotaBytes {
		victim := ""
		var oldest time.Time
		for digest, e := range s.entries {
			if e.refs > 0 || s.inUse(digest) {
				continue
			}
			if victim == "" || e.lastUsed.Before(oldest) {
				victim, oldest = digest, e.lastUsed
			}
		}
		if victim == "" {
			return fmt.Errorf("%w: %d bytes needed but every resident blob is referenced", ErrOverQuota, need)
		}
		if err := s.removeLocked(victim); err != nil {
			return err
		}
		s.mEvictions.Inc()
	}
	return nil
}

func (s *Store) inUse(digest string) bool {
	return s.opts.InUse != nil && s.opts.InUse(digest)
}

// removeLocked deletes a blob's files and entry. Blob first, meta
// second, each removal fsynced: a crash in between leaves
// meta-without-blob, which Open drops (the delete wins), never a
// resurrected half-deleted blob. A blob that cannot be removed keeps
// its entry resident and fails the call.
func (s *Store) removeLocked(digest string) error {
	if err := s.fs.Remove(s.blobPath(digest)); err != nil {
		return err
	}
	s.usage -= s.entries[digest].idx.Bytes
	delete(s.entries, digest)
	s.updateGauges()
	// The delete is durable once the blob is gone; a sidecar left
	// behind is the meta-without-blob that the next Open drops.
	_ = s.fs.Remove(s.metaPath(digest))
	return nil
}

func (s *Store) touchLocked(digest string, e *entry, now time.Time) {
	e.lastUsed = now
	os.Chtimes(s.blobPath(digest), now, now)
}

func (s *Store) infoLocked(digest string, e *entry) Info {
	return Info{
		Digest:   digest,
		Bytes:    e.idx.Bytes,
		NumSMs:   e.idx.NumSMs,
		TotalOps: e.idx.TotalOps,
		Created:  e.created,
		LastUsed: e.lastUsed,
	}
}

// Stat returns the info for one resident trace.
func (s *Store) Stat(digest string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok {
		return Info{}, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	return s.infoLocked(digest, e), nil
}

// List returns every resident trace, sorted by digest.
func (s *Store) List() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.entries))
	for digest, e := range s.entries {
		out = append(out, s.infoLocked(digest, e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// Delete removes a trace. A trace pinned by an open replay or claimed
// by the InUse callback fails with ErrInUse.
func (s *Store) Delete(digest string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok {
		return Info{}, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	if e.refs > 0 {
		return Info{}, fmt.Errorf("%w: %s has %d open replays", ErrInUse, digest, e.refs)
	}
	if s.inUse(digest) {
		return Info{}, fmt.Errorf("%w: %s is referenced by a queued job", ErrInUse, digest)
	}
	info := s.infoLocked(digest, e)
	if err := s.removeLocked(digest); err != nil {
		return Info{}, err
	}
	s.mDeletes.Inc()
	return info, nil
}

// GC runs a TTL sweep: unpinned, unclaimed blobs unused for longer
// than Options.TTL are removed. Returns how many were removed; a blob
// whose removal fails stays resident for the next sweep.
func (s *Store) GC(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcLocked(now)
}

func (s *Store) gcLocked(now time.Time) int {
	if s.opts.TTL <= 0 {
		return 0
	}
	n := 0
	for digest, e := range s.entries {
		if e.refs == 0 && !s.inUse(digest) && now.Sub(e.lastUsed) > s.opts.TTL && s.removeLocked(digest) == nil {
			s.mGCRemoved.Inc()
			n++
		}
	}
	return n
}

// Stats snapshots usage and lifetime counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	blobs, bytes := int64(len(s.entries)), s.usage
	s.mu.Unlock()
	return Stats{
		Blobs:      blobs,
		Bytes:      bytes,
		QuotaBytes: s.opts.QuotaBytes,
		Puts:       s.mPuts.Value(),
		PutHits:    s.mPutHits.Value(),
		Rejected:   s.mRejected.Value(),
		Evictions:  s.mEvictions.Value(),
		Deletes:    s.mDeletes.Value(),
		GCRemoved:  s.mGCRemoved.Value(),
	}
}

func (s *Store) updateGauges() {
	s.gBlobs.Set(float64(len(s.entries)))
	s.gBytes.Set(float64(s.usage))
}

// Replay is a pinned, open handle on one trace blob. While open, the
// blob cannot be deleted or evicted. Close releases the pin.
type Replay struct {
	s      *Store
	digest string
	f      *os.File
	idx    gpusim.TraceIndex
	info   Info
	once   sync.Once
}

// OpenReplay pins a trace and opens its blob for streaming replay.
func (s *Store) OpenReplay(digest string) (*Replay, error) {
	s.mu.Lock()
	e, ok := s.entries[digest]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	e.refs++
	now := time.Now()
	s.touchLocked(digest, e, now)
	info := s.infoLocked(digest, e)
	idx := e.idx
	s.mu.Unlock()

	f, err := os.Open(s.blobPath(digest))
	if err != nil {
		s.mu.Lock()
		e.refs--
		s.mu.Unlock()
		return nil, err
	}
	return &Replay{s: s, digest: digest, f: f, idx: idx, info: info}, nil
}

// Info returns the replayed trace's description.
func (r *Replay) Info() Info { return r.info }

// Blob returns a fresh reader over the raw committed bytes (for
// download and shard-to-shard transfer); independent of Traces.
func (r *Replay) Blob() *io.SectionReader {
	return io.NewSectionReader(r.f, 0, r.idx.Bytes)
}

// Traces returns numSMs per-SM traces replaying straight off the blob
// through section readers — nothing is materialized. SMs beyond the
// trace's own count are nil (idle). Every call returns independent,
// rewound streams, matching the runner's Traces-callback contract. The
// caller must ensure numSMs covers the trace (the serving layer
// validates this at resolve time).
func (r *Replay) Traces(numSMs int) []gpusim.Trace {
	base := gpusim.OpenTraceAt(r.f, r.idx)
	out := make([]gpusim.Trace, numSMs)
	copy(out, base)
	return out
}

// Close releases the pin and the file handle. Idempotent.
func (r *Replay) Close() error {
	var err error
	r.once.Do(func() {
		r.s.mu.Lock()
		if e, ok := r.s.entries[r.digest]; ok {
			e.refs--
		}
		r.s.mu.Unlock()
		err = r.f.Close()
	})
	return err
}
