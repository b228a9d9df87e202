package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/workload"
)

// cacheID is the canonical key material. encoding/json emits struct
// fields in declaration order, so the encoding is deterministic.
type cacheID struct {
	Version   int
	Config    gpusim.Config
	Workload  workload.Workload
	MaxCycles uint64
	TraceKey  string
}

// CacheKeyFor returns the content-addressed cache identity of job under
// the machine configuration cfg — exactly the key the engine uses for
// its on-disk result cache, so a serving layer can coalesce identical
// in-flight requests and consult the cache without constructing an
// Engine. The boolean reports whether the job is cacheable at all: a
// Traces override without a Key has no content identity (see Job.Key)
// and returns ("", false).
//
// Two cells have equal keys if and only if they agree on the cache
// schema version, the workload parameters (or the trace identity), the
// cycle cap and the canonical machine config (gpusim.Config.Canonical)
// with the job applied — the config the simulator actually runs — so
// equal keys simulate identically. A workload's none, imt and ecc-steal
// cells therefore share one key.
//
// A job with a non-empty Key is keyed by that trace identity even when
// Traces is nil: callers that know a stored trace's digest but do not
// hold its blob (the cluster gateway computing routing keys) get the
// exact key a shard with the open replay computes.
//
// cfg's Mode and Carve are ignored, mirroring Engine semantics: the
// job is applied onto cfg (cellConfig) before hashing.
func CacheKeyFor(cfg gpusim.Config, job Job) (string, bool) {
	if job.Traces != nil && job.Key == "" {
		return "", false
	}
	id := cacheID{
		Version:   cacheVersion,
		Config:    cellConfig(cfg, job).Canonical(),
		MaxCycles: job.MaxCycles,
	}
	// A non-empty Key is a trace identity (e.g. "trace:<digest>" from
	// the trace store) and replaces the workload parameter set in the
	// key material whether or not a Traces override is attached: a
	// gateway that knows only the digest and a shard holding the open
	// replay must derive the same key, or routing-by-cache-affinity
	// breaks for trace-backed cells.
	if job.Key != "" {
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
	return hex.EncodeToString(sum[:]), true
}

// cellConfig is the machine a job simulates under: cfg with the job's
// Mode and Carve applied and, when nonzero, its SampleInterval. The
// engine simulates this config and CacheKeyFor hashes it, so the two
// cannot disagree.
func cellConfig(cfg gpusim.Config, job Job) gpusim.Config {
	cfg.Mode = job.Mode
	cfg.Carve = job.Carve
	if job.SampleInterval != 0 {
		cfg.SampleInterval = job.SampleInterval
	}
	return cfg
}
