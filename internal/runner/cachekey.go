package runner

import (
	"repro/internal/gpusim"
	"repro/internal/workload"
)

// CacheKeyFor returns the content-addressed cache identity of job under
// the machine configuration cfg — exactly the key the engine uses for
// its on-disk result cache, so a serving layer can coalesce identical
// in-flight requests and consult the cache without constructing an
// Engine. The boolean reports whether the job is cacheable at all: a
// Traces override without a Key has no content identity (see Job.Key)
// and returns ("", false).
//
// A job with a non-empty Key is keyed by that trace identity even when
// Traces is nil: callers that know a stored trace's digest but do not
// hold its blob (the cluster gateway computing routing keys) get the
// exact key a shard with the open replay computes.
//
// cfg's Mode and Carve are ignored, mirroring Engine semantics: the
// job's own Mode and Carve are applied on top of cfg before hashing.
func CacheKeyFor(cfg gpusim.Config, job Job) (string, bool) {
	if job.Traces != nil && job.Key == "" {
		return "", false
	}
	cfg.Mode = job.Mode
	cfg.Carve = job.Carve
	return cacheKeyFor(cfg, job), true
}

// CacheKey is the common-case CacheKeyFor: the cache identity of a
// catalog workload under one tagging configuration with the default
// cycle cap. Two cells have equal keys if and only if they agree on the
// cache schema version, the workload parameters, the cycle cap and the
// canonical machine config (gpusim.Config.Canonical) — the config the
// simulator actually runs — so equal keys simulate identically. A
// workload's none, imt and ecc-steal cells therefore share one key.
func CacheKey(cfg gpusim.Config, w workload.Workload, mode gpusim.TagMode, carve gpusim.CarveOut) string {
	key, _ := CacheKeyFor(cfg, Job{Workload: w, Mode: mode, Carve: carve})
	return key
}
