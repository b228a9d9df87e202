package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/gpusim"
	"repro/internal/workload"
)

// cacheVersion invalidates every entry when the cached payload or the
// simulator's observable behavior changes shape.
//
// v2: gpusim.Stats gained the phase-telemetry Samples series and
// gpusim.Config gained SampleInterval.
// v3: the key hashes gpusim.Config.Canonical(), so imt and ecc-steal
// cells share their none twin's entry, and Carve/BoundsCk count only
// in the mode that reads them.
// v4: the simulator delivers equal-cycle events L1 ring first, then
// DRAM ring (gpusim's two event rings replaced its heap), which moves
// the statistics of a few cells.
const cacheVersion = 4

// Cache is the engine's content-addressed result store, also opened
// directly (OpenCache) by callers that need cache access without a full
// Engine, such as the serving layer's fast path. The key is SHA-256 over
// a canonical JSON encoding of (cache version, the machine config with
// the cell's mode and carve applied, in its gpusim.Config.Canonical
// form, the workload's complete parameter set, the cycle cap, and any
// replay-trace identity). A change to anything the simulator reads
// (machine, workload, a carve-out cell's geometry, a bounds-table
// cell's check latency) therefore changes the address and misses, while
// cells with equal canonical configs, such as a workload's none, imt and
// ecc-steal cells, share one entry. Entries are JSON-encoded
// gpusim.Stats stored at <dir>/<key[:2]>/<key>.json; writes are
// durable.FS commits, so concurrent sweeps sharing a directory never
// observe torn entries and a stored entry survives power loss.
type Cache struct {
	dir string
	fs  durable.FS // zero outside tests
}

// OpenCache returns a handle on the cache rooted at dir. The directory
// is created on the first Store; a Lookup against a nonexistent
// directory is simply a miss.
func OpenCache(dir string) *Cache {
	return &Cache{dir: dir}
}

// cacheID is the canonical key material. encoding/json emits struct
// fields in declaration order, so the encoding is deterministic.
type cacheID struct {
	Version   int
	Config    gpusim.Config
	Workload  workload.Workload
	MaxCycles uint64
	TraceKey  string
}

// cacheKeyFor hashes the canonical key material for a cell. cfg must
// already carry the cell's Mode and Carve (see Engine.cellConfig and the
// exported CacheKeyFor). It is the single key implementation shared by
// the engine and the exported CacheKey/CacheKeyFor helpers, so key
// equality is cache-hit behavior by construction. It hashes
// cfg.Canonical(), the config gpusim.New simulates, so equal keys mean
// equal simulations.
func cacheKeyFor(cfg gpusim.Config, job Job) string {
	id := cacheID{
		Version:   cacheVersion,
		Config:    cfg.Canonical(),
		MaxCycles: job.MaxCycles,
	}
	// A non-empty Key is a trace identity (e.g. "trace:<digest>" from
	// the trace store) and replaces the workload parameter set in the
	// key material whether or not a Traces override is attached: a
	// gateway that knows only the digest and a shard holding the open
	// replay must derive the same key, or routing-by-cache-affinity
	// breaks for trace-backed cells.
	if job.Traces != nil || job.Key != "" {
		id.TraceKey = job.Key
	} else {
		id.Workload = job.Workload
	}
	blob, err := json.Marshal(id)
	if err != nil {
		// Config and Workload are plain exported scalars and slices;
		// marshalling cannot fail for well-formed jobs.
		panic(fmt.Sprintf("runner: cache key encoding: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Lookup returns the cached stats for key, reporting a miss for absent
// or unreadable entries (a corrupt file is simply re-simulated).
func (c *Cache) Lookup(key string) (gpusim.Stats, bool) {
	blob, err := os.ReadFile(c.path(key))
	if err != nil {
		return gpusim.Stats{}, false
	}
	var st gpusim.Stats
	if err := json.Unmarshal(blob, &st); err != nil {
		return gpusim.Stats{}, false
	}
	return st, true
}

// Store commits the stats under key durably. Write failures are
// deliberately swallowed: a sweep on a read-only or full disk still
// produces results, it just stops being cached.
func (c *Cache) Store(key string, st gpusim.Stats) {
	if blob, err := json.Marshal(st); err == nil {
		_ = c.fs.WriteFile(c.path(key), blob)
	}
}
