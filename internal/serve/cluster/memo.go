package cluster

import (
	"sync"

	"repro/internal/gpusim"
	"repro/internal/serve"
)

// memoGeneration is the entry count of one memo generation. One
// generation holds every catalog cell at the default cycle cap (193
// workloads × 5 canonical keys = 965), so the memo holds at most twice
// this many answers.
const memoGeneration = 1024

// memoEntry is one kept /v1/sim answer: the stats, the shard that
// produced them and the shard's cache-key prefix.
type memoEntry struct {
	stats    gpusim.Stats
	shard    string
	cacheKey string
}

// memo holds immutable /v1/sim answers keyed by cell cache key. A key
// is a content address over the canonical config and simulation is
// deterministic, so a kept answer is the one any shard would send.
// Two generations bound it: when the current one fills it becomes the
// old one and the previous old one is dropped; a hit in the old
// generation moves the entry back to the current one.
type memo struct {
	mu       sync.Mutex
	cur, old map[string]memoEntry
}

// memoizable reports whether a cell's answer may be kept: trace cells
// must reach the shard's trace store (a deleted trace answers 404
// there), and a sampled cell's Samples series grows with the run, so
// an entry count would not bound its memory.
func memoizable(cell serve.Cell) bool {
	return cell.Digest == "" && cell.Job.SampleInterval == 0
}

func (m *memo) get(key string) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.cur[key]; ok {
		return e, true
	}
	e, ok := m.old[key]
	if ok {
		delete(m.old, key)
		m.putLocked(key, e)
	}
	return e, ok
}

func (m *memo) put(key string, e memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(key, e)
}

func (m *memo) putLocked(key string, e memoEntry) {
	if _, ok := m.cur[key]; !ok && len(m.cur) >= memoGeneration {
		m.old, m.cur = m.cur, nil
	}
	if m.cur == nil {
		m.cur = make(map[string]memoEntry, memoGeneration)
	}
	m.cur[key] = e
}

// entries is the number of answers held across both generations.
func (m *memo) entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}
