package runner

import (
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/gpusim"
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
// Engine. The key (CacheKeyFor) is SHA-256 over a canonical JSON
// encoding of (cache version, the machine config with the job applied,
// in its gpusim.Config.Canonical form, the workload's complete parameter
// set, the cycle cap, and any replay-trace identity). A change to anything the simulator reads
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
