package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over a fleet of shard base URLs. The
// hash key is the cell's runner cache key, so a cell always lands on
// the shard whose on-disk result cache already holds it — cache
// affinity falls out of routing, no shard-local state required.
//
// Each shard owns Replicas virtual points on a 64-bit ring; a key is
// owned by the first point at or clockwise after the key's hash.
// Because points are a pure function of the shard URL, two gateways
// configured with the same fleet route identically, and adding or
// removing one shard moves only the keys that shard owned (plus the
// 1/N share the new shard takes) — the minimal-movement property the
// ring_test pins.
type Ring struct {
	shards   []string
	replicas int
	points   []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int // index into shards
}

// DefaultReplicas is the virtual-node count per shard: enough to keep
// the ownership split within a few percent of uniform for small
// fleets, cheap enough that ring construction is microseconds.
const DefaultReplicas = 128

// NewRing builds a ring over shards (base URLs; order does not matter,
// duplicates are an error) with replicas virtual points per shard
// (0 = DefaultReplicas).
func NewRing(shards []string, replicas int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	sorted := append([]string(nil), shards...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate shard %q", sorted[i])
		}
	}
	r := &Ring{
		shards:   sorted,
		replicas: replicas,
		points:   make([]ringPoint, 0, len(sorted)*replicas),
	}
	for si, shard := range r.shards {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(fmt.Sprintf("%s#%d", shard, v)),
				shard: si,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties break on shard index so construction order can
		// never influence ownership.
		return a.shard < b.shard
	})
	return r, nil
}

// Replicas returns the virtual-point count per shard.
func (r *Ring) Replicas() int { return r.replicas }

// Shards returns the fleet in canonical (sorted) order.
func (r *Ring) Shards() []string {
	return append([]string(nil), r.shards...)
}

// Owner returns the shard owning key.
func (r *Ring) Owner(key string) string {
	return r.Order(key)[0]
}

// Order returns every shard exactly once, in the key's ring preference
// order: the owner first, then each next distinct shard walking
// clockwise. A gateway retries a failed cell on Order(key)[1], then
// [2], … — deterministic, and biased toward the same fallback shard
// for the same key so even rerouted cells retain cache affinity.
func (r *Ring) Order(key string) []string {
	start := r.search(hash64(key))
	order := make([]string, 0, len(r.shards))
	seen := make([]bool, len(r.shards))
	for i := 0; i < len(r.points) && len(order) < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			order = append(order, r.shards[p.shard])
		}
	}
	return order
}

// search finds the first point at or clockwise after h.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// hash64 is FNV-1a with a splitmix64 finalizer. Raw FNV-1a of short,
// near-identical strings (vnode labels differ only in a digit or two)
// lands clustered on the ring badly enough to starve shards; the
// finalizer's avalanche restores a uniform spread.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
