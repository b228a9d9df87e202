package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/durable"
	"repro/internal/durable/durabletest"
	"repro/internal/gpusim"
)

// TestCacheStoreCrashPoints stops a cell's cache write at every
// filesystem operation. The sweep itself never fails, and afterwards
// the entry is either absent or byte-identical to a recompute.
func TestCacheStoreCrashPoints(t *testing.T) {
	job := tinyJobs(1)[0]
	cfg := gpusim.DefaultConfig()
	recompute, err := New(cfg, Options{}).Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(statsOf(t, recompute)[0])
	if err != nil {
		t.Fatal(err)
	}
	key, _ := CacheKeyFor(cfg, job)
	var dir string
	hit := false
	durabletest.Enumerate(t, func(fs durable.FS) error {
		dir = t.TempDir()
		eng := New(cfg, Options{CacheDir: dir})
		eng.cache.fs = fs
		_, err := eng.Run(context.Background(), []Job{job})
		return err
	}, func(k int, err error) {
		if err != nil {
			t.Fatalf("crash at op %d failed the sweep: %v", k, err)
		}
		st, ok := OpenCache(dir).Lookup(key)
		if hit = ok; !ok {
			return
		}
		if got, _ := json.Marshal(st); !bytes.Equal(got, want) {
			t.Fatalf("crash at op %d: cached %s, recompute %s", k, got, want)
		}
	})
	if !hit {
		t.Fatal("completed cache write is not a hit")
	}
}
