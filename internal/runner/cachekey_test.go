package runner

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/workload"
)

// catalogKey is the CacheKeyFor of a catalog workload cell with the
// default cycle cap.
func catalogKey(cfg gpusim.Config, w workload.Workload, mode gpusim.TagMode, carve gpusim.CarveOut) string {
	key, _ := CacheKeyFor(cfg, Job{Workload: w, Mode: mode, Carve: carve})
	return key
}

// TestCacheKeyMatchesEngineCache is the exported-key contract: a key
// computed by CacheKeyFor without an Engine must address exactly the entry
// a real engine run stored, and Lookup through a standalone Cache must
// be a hit with the engine's stats.
func TestCacheKeyMatchesEngineCache(t *testing.T) {
	w := tinyWorkload(11, "keyed")
	cfg := gpusim.DefaultConfig()
	dir := t.TempDir()

	jobs := []Job{
		{Workload: w, Mode: gpusim.ModeNone},
		{Workload: w, Mode: gpusim.ModeCarveOut, Carve: gpusim.CarveOutLow},
	}
	eng := New(cfg, Options{CacheDir: dir})
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}

	cache := OpenCache(dir)
	for i, job := range jobs {
		key, ok := CacheKeyFor(cfg, job)
		if !ok {
			t.Fatalf("cell %d: catalog cell reported uncacheable", i)
		}
		st, ok := cache.Lookup(key)
		if !ok {
			t.Fatalf("cell %d: exported key missed the entry the engine stored", i)
		}
		if !reflect.DeepEqual(st, results[i].Stats.WithoutHost()) {
			t.Errorf("cell %d: cached stats differ from the engine's result", i)
		}
	}

	// The engine must hit entries stored through the standalone handle:
	// same key space in both directions.
	w2 := tinyWorkload(12, "stored-externally")
	cache.Store(catalogKey(cfg, w2, gpusim.ModeIMT, gpusim.CarveOut{}), results[0].Stats.WithoutHost())
	eng2 := New(cfg, Options{CacheDir: dir})
	res2, err := eng2.Run(context.Background(), []Job{{Workload: w2, Mode: gpusim.ModeIMT}})
	if err != nil {
		t.Fatal(err)
	}
	if c := eng2.Counters(); c.CacheHits != 1 || c.SimRuns != 0 {
		t.Fatalf("engine missed an externally stored entry: %+v", c)
	}
	if !res2[0].Cached {
		t.Error("result not marked cached")
	}
}

// TestCacheKeySensitivity: the key must move with anything that changes
// simulated behavior, and only with that.
func TestCacheKeySensitivity(t *testing.T) {
	w := tinyWorkload(21, "sense")
	cfg := gpusim.DefaultConfig()
	base := catalogKey(cfg, w, gpusim.ModeNone, gpusim.CarveOut{})

	if k := catalogKey(cfg, w, gpusim.ModeNone, gpusim.CarveOut{}); k != base {
		t.Error("identical cell produced a different key")
	}
	bounds := catalogKey(cfg, w, gpusim.ModeBoundsTable, gpusim.CarveOut{})
	if bounds == base {
		t.Error("mode change did not change the key")
	}
	if k := catalogKey(cfg, w, gpusim.ModeCarveOut, gpusim.CarveOutLow); k == base {
		t.Error("carve mode did not change the key")
	}
	low := catalogKey(cfg, w, gpusim.ModeCarveOut, gpusim.CarveOutLow)
	if k := catalogKey(cfg, w, gpusim.ModeCarveOut, gpusim.CarveOutHigh); k == low {
		t.Error("carve geometry did not change the key")
	}
	slowCheck := cfg
	slowCheck.BoundsCk++
	if k := catalogKey(slowCheck, w, gpusim.ModeBoundsTable, gpusim.CarveOut{}); k == bounds {
		t.Error("bounds-check latency did not change a bounds-table key")
	}

	// The "only with that" half: fields the simulator does not read
	// (gpusim.Config.Canonical) leave the key alone. IMT and ECC-stealing
	// keep tags in the check bits, so they simulate as none.
	for _, mode := range []gpusim.TagMode{gpusim.ModeIMT, gpusim.ModeECCSteal} {
		if k := catalogKey(cfg, w, mode, gpusim.CarveOut{}); k != base {
			t.Errorf("%s key differs from none's; the simulator cannot tell them apart", mode)
		}
	}
	for _, mode := range []gpusim.TagMode{gpusim.ModeNone, gpusim.ModeIMT, gpusim.ModeECCSteal, gpusim.ModeBoundsTable} {
		plain := catalogKey(cfg, w, mode, gpusim.CarveOut{})
		if k := catalogKey(cfg, w, mode, gpusim.CarveOutHigh); k != plain {
			t.Errorf("carve geometry moved a %s key", mode)
		}
	}
	for _, mode := range []gpusim.TagMode{gpusim.ModeNone, gpusim.ModeIMT, gpusim.ModeECCSteal} {
		if k := catalogKey(slowCheck, w, mode, gpusim.CarveOut{}); k != base {
			t.Errorf("bounds-check latency moved a %s key", mode)
		}
	}
	if k := catalogKey(slowCheck, w, gpusim.ModeCarveOut, gpusim.CarveOutLow); k != low {
		t.Error("bounds-check latency moved a carve-out key")
	}
	bigger := cfg
	bigger.L2SliceBytes *= 2
	if k := catalogKey(bigger, w, gpusim.ModeNone, gpusim.CarveOut{}); k == base {
		t.Error("machine change did not change the key")
	}
	reseeded := w
	reseeded.Seed++
	if k := catalogKey(cfg, reseeded, gpusim.ModeNone, gpusim.CarveOut{}); k == base {
		t.Error("workload change did not change the key")
	}

	// MaxCycles is part of the identity (a capped run has different stats).
	capped, ok := CacheKeyFor(cfg, Job{Workload: w, MaxCycles: 1000})
	if !ok || capped == base {
		t.Error("cycle cap did not change the key")
	}

	// cfg's own Mode/Carve are ignored: the job's tagging is applied.
	dirty := cfg
	dirty.Mode, dirty.Carve = gpusim.ModeCarveOut, gpusim.CarveOutHigh
	if k := catalogKey(dirty, w, gpusim.ModeNone, gpusim.CarveOut{}); k != base {
		t.Error("cfg.Mode/Carve leaked into the key; the job's tagging must win")
	}
}

func TestCacheKeyForUncacheable(t *testing.T) {
	src := func(numSMs int) []gpusim.Trace { return nil }
	if key, ok := CacheKeyFor(gpusim.DefaultConfig(), Job{Traces: src}); ok || key != "" {
		t.Errorf("unkeyed trace override must be uncacheable, got (%q, %v)", key, ok)
	}
	if _, ok := CacheKeyFor(gpusim.DefaultConfig(), Job{Traces: src, Key: "v1"}); !ok {
		t.Error("keyed trace override must be cacheable")
	}
}

// TestCacheKeyTraceParity is the cluster-routing contract for trace-
// backed cells: a gateway that knows only "trace:<digest>" (no Traces
// func) and a shard holding the open replay (Traces attached) must
// compute identical keys, and the digest — not the blob — is the
// identity.
func TestCacheKeyTraceParity(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	src := func(numSMs int) []gpusim.Trace { return nil }
	name := "trace:" + "ab12" // digest spelling is opaque to the key

	gateway, ok := CacheKeyFor(cfg, Job{Key: name, Mode: gpusim.ModeIMT})
	if !ok {
		t.Fatal("keyed job without Traces must be cacheable")
	}
	shard, ok := CacheKeyFor(cfg, Job{Key: name, Mode: gpusim.ModeIMT, Traces: src})
	if !ok || shard != gateway {
		t.Fatalf("gateway key %q != shard key %q", gateway, shard)
	}
	// The trace identity replaces the workload in the key material: a
	// stray Workload on a keyed job must not perturb the key.
	stray, _ := CacheKeyFor(cfg, Job{Key: name, Mode: gpusim.ModeIMT, Workload: tinyWorkload(31, "stray")})
	if stray != gateway {
		t.Error("workload leaked into a trace-keyed cache key")
	}
	// And the key still moves with everything behavioral.
	if k, _ := CacheKeyFor(cfg, Job{Key: "trace:cd34", Mode: gpusim.ModeIMT}); k == gateway {
		t.Error("digest change did not change the key")
	}
	if k, _ := CacheKeyFor(cfg, Job{Key: name, Mode: gpusim.ModeBoundsTable}); k == gateway {
		t.Error("mode change did not change the key")
	}
	// ...and only with that: a trace cell's none, imt and ecc-steal
	// twins replay the same memory system.
	for _, mode := range []gpusim.TagMode{gpusim.ModeNone, gpusim.ModeECCSteal} {
		if k, _ := CacheKeyFor(cfg, Job{Key: name, Mode: mode, Traces: src}); k != gateway {
			t.Errorf("%s trace key differs from imt's", mode)
		}
	}
	if k, _ := CacheKeyFor(cfg, Job{Key: name, Mode: gpusim.ModeIMT, MaxCycles: 99}); k == gateway {
		t.Error("cycle cap did not change the key")
	}
	// A trace-keyed job and a catalog job can never collide.
	if k := catalogKey(cfg, tinyWorkload(32, "cat"), gpusim.ModeIMT, gpusim.CarveOut{}); k == gateway {
		t.Error("catalog key collided with a trace key")
	}
}

func TestCacheLookupMissOnAbsentDir(t *testing.T) {
	cache := OpenCache(t.TempDir() + "/never-created")
	if _, ok := cache.Lookup(catalogKey(gpusim.DefaultConfig(), tinyWorkload(1, "x"), gpusim.ModeNone, gpusim.CarveOut{})); ok {
		t.Error("lookup against a nonexistent directory must miss")
	}
}

// TestCacheKeyPinned: cache keys are the address of every deployed
// cache entry and the gateway's routing position, so they must not move
// without a cacheVersion bump (which cold-starts every cache). The
// literals are hpc-micro0/imt at the default machine, without and with
// a 20000-cycle sampling interval. A job's SampleInterval keys exactly
// as the same interval on the machine config.
func TestCacheKeyPinned(t *testing.T) {
	var w workload.Workload
	for _, c := range workload.Catalog() {
		if c.Name == "hpc-micro0" {
			w = c
		}
	}
	if w.Name == "" {
		t.Fatal("hpc-micro0 missing from the catalog")
	}
	pinned := map[uint64]string{
		0:     "381fa2d9356bce70fd783dd5c08af4ee6ee013ebc55764033d0d00f60bfab266",
		20000: "f00ad061318a71e10b4c0b76a534ee4a7564d6603e30b123259d5b8d40c7e584",
	}
	for s, want := range pinned {
		cfg := gpusim.DefaultConfig()
		onJob, _ := CacheKeyFor(cfg, Job{Workload: w, Mode: gpusim.ModeIMT, SampleInterval: s})
		cfg.SampleInterval = s
		onCfg, _ := CacheKeyFor(cfg, Job{Workload: w, Mode: gpusim.ModeIMT})
		if onJob != onCfg {
			t.Errorf("sample interval %d: job key %s != config key %s", s, onJob, onCfg)
		}
		if onCfg != want {
			t.Errorf("sample interval %d: key %s, pinned %s (a key change needs a cacheVersion bump)", s, onCfg, want)
		}
	}
	// A nonzero job interval replaces the machine config's.
	cfg := gpusim.DefaultConfig()
	cfg.SampleInterval = 500
	if k, _ := CacheKeyFor(cfg, Job{Workload: w, Mode: gpusim.ModeIMT, SampleInterval: 20000}); k != pinned[20000] {
		t.Errorf("job interval did not replace the config's: key %s", k)
	}
}
