package gpusim

// Preallocated replacements for the seed simulator's per-access map
// lookups and per-op heap allocations. Two structures:
//
//   - pendTable[T]: an open-addressed linear-probe hash table from
//     sector id to a merged waiter list, with backward-shift deletion so
//     the table never accumulates tombstones and steady-state
//     insert/lookup/delete allocate nothing. Waiter lists are recycled
//     through a free list. It backs both the per-SM L1 MSHR file
//     (T = *opState; capacity bounded by Config.L1MSHRs via an explicit
//     count check at the issue site) and the per-L2-slice miss-merge
//     file of in-flight DRAM reads (T = *l2Miss).
//   - opArena: a chunked slab for opState. Warp-op lifetimes interleave
//     (an op can go quiescent and regain pending sectors while its SM is
//     blocked on MSHRs), so individual frees are unsafe; the arena bumps
//     within a run and is reused wholesale across Reset.
//
// Neither changes observable behavior: the maps they replace were never
// iterated, so only exact-key lookup semantics and per-key waiter
// append order matter, and both are preserved. cmd/conformance pins
// this bit-identity against the committed goldens.

// hashSector mixes a sector id (which may carry key tags in its high
// bits) into a well-distributed 64-bit value (splitmix64 finalizer).
func hashSector(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pendTable maps in-flight sectors to their merged waiter lists:
// open addressing, linear probing, backward-shift deletion.
type pendTable[T any] struct {
	keys  []uint64
	vals  [][]T
	used  []bool
	count int
	mask  uint64
	free  [][]T
}

const pendInitialCap = 64 // power of two

// newPendTable returns a table of at least pendInitialCap slots and at
// least minCap, rounded up to a power of two. A table sized for its
// peak load keeps probe clusters short: the L1 MSHR file asks for four
// slots per MSHR, where the default 64 slots would run 48 MSHRs at 0.73
// load. Only per-key waiter order is observable, never the layout.
func newPendTable[T any](minCap int) *pendTable[T] {
	capacity := pendInitialCap
	for capacity < minCap {
		capacity *= 2
	}
	t := &pendTable[T]{}
	t.alloc(capacity)
	return t
}

func (t *pendTable[T]) alloc(capacity int) {
	t.keys = make([]uint64, capacity)
	t.vals = make([][]T, capacity)
	t.used = make([]bool, capacity)
	t.mask = uint64(capacity - 1)
}

// find returns the slot holding sector, or -1.
func (t *pendTable[T]) find(sector uint64) int {
	i := hashSector(sector) & t.mask
	for t.used[i] {
		if t.keys[i] == sector {
			return int(i)
		}
		i = (i + 1) & t.mask
	}
	return -1
}

func (t *pendTable[T]) addWaiter(slot int, m T) {
	t.vals[slot] = append(t.vals[slot], m)
}

// probe returns the slot holding sector (found = true) or, when absent,
// the empty slot an insert of sector would land in (found = false). The
// miss path hands that slot straight to putAt, so a lookup-then-insert
// costs one hash and one probe chain instead of two.
func (t *pendTable[T]) probe(sector uint64) (slot int, found bool) {
	i := hashSector(sector) & t.mask
	for t.used[i] {
		if t.keys[i] == sector {
			return int(i), true
		}
		i = (i + 1) & t.mask
	}
	return int(i), false
}

// putAt inserts sector with one waiter at the empty slot a just-failed
// probe returned, re-probing only when the table has to grow first.
// Nothing may be inserted or removed between the probe and the putAt.
func (t *pendTable[T]) putAt(slot int, sector uint64, m T) {
	if (uint64(t.count)+1)*4 > (t.mask+1)*3 {
		t.grow()
		i := hashSector(sector) & t.mask
		for t.used[i] {
			i = (i + 1) & t.mask
		}
		slot = int(i)
	}
	t.keys[slot] = sector
	t.used[slot] = true
	var w []T
	if n := len(t.free); n > 0 {
		w = t.free[n-1]
		t.free = t.free[:n-1]
	}
	t.vals[slot] = append(w, m)
	t.count++
}

// take removes sector's entry and returns its waiter list (nil if
// absent); the caller must hand the slice back through recycle once done
// iterating. Deletion uses the standard linear-probe backward-shift so
// probe chains stay intact without tombstones.
func (t *pendTable[T]) take(sector uint64) []T {
	slot := t.find(sector)
	if slot < 0 {
		return nil
	}
	w := t.vals[slot]
	i := uint64(slot)
	t.used[i] = false
	t.vals[i] = nil
	j := i
	for {
		j = (j + 1) & t.mask
		if !t.used[j] {
			break
		}
		k := hashSector(t.keys[j]) & t.mask
		// Entry j may move into the hole at i only if its home slot k is
		// cyclically outside (i, j].
		if i <= j {
			if i < k && k <= j {
				continue
			}
		} else if i < k || k <= j {
			continue
		}
		t.keys[i], t.vals[i], t.used[i] = t.keys[j], t.vals[j], true
		t.used[j] = false
		t.vals[j] = nil
		i = j
	}
	t.count--
	return w
}

func (t *pendTable[T]) recycle(w []T) {
	clear(w)
	t.free = append(t.free, w[:0])
}

func (t *pendTable[T]) grow() {
	oldKeys, oldVals, oldUsed := t.keys, t.vals, t.used
	t.alloc(int(t.mask+1) * 2)
	for i, u := range oldUsed {
		if !u {
			continue
		}
		j := hashSector(oldKeys[i]) & t.mask
		for t.used[j] {
			j = (j + 1) & t.mask
		}
		t.keys[j] = oldKeys[i]
		t.vals[j] = oldVals[i]
		t.used[j] = true
	}
}

func (t *pendTable[T]) reset() {
	for i := range t.vals {
		if t.used[i] {
			t.recycle(t.vals[i])
			t.vals[i] = nil
		}
	}
	clear(t.used)
	t.count = 0
}

// opArena bump-allocates opStates in chunks; pointers stay stable (the
// chunks never move) and the whole arena is reused across Sim.Reset.
type opArena struct {
	chunks [][]opState
	chunk  int // chunk currently bumping
	n      int // used entries within that chunk
}

const opChunkSize = 512

func (a *opArena) get(sm *smState, pending int) *opState {
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]opState, opChunkSize))
	}
	op := &a.chunks[a.chunk][a.n]
	op.sm = sm
	op.pending = pending
	op.idx = int32(a.chunk*opChunkSize + a.n)
	if a.n++; a.n == opChunkSize {
		a.chunk++
		a.n = 0
	}
	return op
}

func (a *opArena) reset() {
	a.chunk, a.n = 0, 0
}

// at returns the opState an event's packed arena index refers to.
func (a *opArena) at(idx int32) *opState {
	return &a.chunks[idx/opChunkSize][idx%opChunkSize]
}
