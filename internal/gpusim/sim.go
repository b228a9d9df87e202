package gpusim

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"time"
)

// tagRegionSector places carve-out tag storage in a disjoint sector-id
// region. Data sectors derived from a 49-bit VA occupy ids below 2^44
// (addr/32); sector ids carrying key tags occupy bits ≥ TagShift. Basing
// the tag region at 2^44 keeps it disjoint from both: untagged data ids
// stay below it, and tag-region ids for tagged sectors land strictly
// below 2^49 (tag<<49 / 32 = tag<<44, plus the base), never colliding
// with the tagged data ids they cover.
const tagRegionSector = uint64(1) << 44

// Sim is one simulation instance. Create with New, drive with Run; Reset
// rewinds a finished instance for reuse without reallocating any of its
// internal state (caches, MSHR files, queues, arenas).
//
// The hot path is deliberately allocation-free in steady state: caches
// and MSHRs are preallocated set/slot-indexed arrays, L2 miss-merge
// files are open-addressed tables with recycled waiter lists, queues are
// rings, events live in two FIFO rings, op/miss bookkeeping comes
// from per-Sim arenas and free lists, and trace decoding is batched into
// a reusable buffer whose ops' addresses live in one reused arena per
// trace. cmd/conformance pins all of it bit-identical against the
// committed goldens; the order of events due in the same cycle is a
// declared rule (see nextEvent).
type Sim struct {
	cfg    Config
	sms    []smState    // value array: one pointer hop fewer, better locality
	slices []sliceState // value array; elements never move after New
	stats  Stats
	now    uint64

	// Pending events, one FIFO ring per latency class. Every event is
	// pushed at s.now plus its class's fixed latency and s.now never
	// decreases, so each ring is already in cycle order; nextEvent
	// merges the two heads under the tie rule documented there.
	l1Events   ring[event] // evL1Fill, evAtomicDone at s.now+L1Latency
	dramEvents ring[event] // evDRAMData, evDRAMTag at s.now+DRAMLatency

	ops      opArena   // opState slab, reused across Reset
	missFree []*l2Miss // l2Miss free list

	// Precomputed crossbar/carve-out address arithmetic (see fastDivMod).
	interleave fastDivMod // sector / InterleaveSectors
	sliceMod   fastDivMod // group % NumSlices
	tagSpan    fastDivMod // sector / (CoverageBytes/SectorSize), carve-out only

	// Interval-sampler state (cfg.SampleInterval > 0): the counter
	// snapshot and cycle of the previous sample, and the next boundary.
	lastSample      Stats
	lastSampleCycle uint64
	nextSample      uint64
}

type smState struct {
	id          int
	trace       Trace
	batch       batchTrace // non-nil when trace supports NextBatch
	opBuf       []WarpOp   // decoded-op buffer (batch != nil)
	opPos       int
	l1          *cache
	nextReady   uint64
	outstanding int
	// mshr is the L1 MSHR file. The hardware is a small fully-associative
	// search structure; capacity is enforced by the count check at the
	// issue site, not by the table, so the hashed pendTable serves here
	// too (a linear scan over L1MSHRs sectors lost to it in profiles).
	mshr *pendTable[*opState]
	// blocked marks pi as the remainder of an op that ran out of MSHRs.
	// A blocked SM retries only once filled is set: only l1Fill adds L1
	// lines or frees this SM's MSHRs, so a retry between two fills would
	// fail exactly as the last one did (its one side effect, an L1 clock
	// tick, never reorders the LRU stamps). Blocking clears filled.
	blocked bool
	filled  bool
	pi      pendingIssue
	done    bool
	scratch []uint64
	// boundsToggle alternates bounds-table port conflicts (ModeBoundsTable).
	boundsToggle uint64
}

// opBufSize is the per-SM decoded-op batch (~14KB per SM).
const opBufSize = 256

// nextOp yields the SM's next warp op: from the decoded batch buffer
// when the trace supports batching, or a direct Next call otherwise.
// Batching only changes when the trace is decoded, never the op
// sequence, so results are identical either way.
func (sm *smState) nextOp() (WarpOp, bool) {
	if sm.opPos < len(sm.opBuf) {
		op := sm.opBuf[sm.opPos]
		sm.opPos++
		return op, true
	}
	if sm.batch != nil {
		n := sm.batch.NextBatch(sm.opBuf[:opBufSize])
		if n > 0 {
			sm.opBuf = sm.opBuf[:n]
			sm.opPos = 1
			return sm.opBuf[0], true
		}
		return WarpOp{}, false
	}
	return sm.trace.Next()
}

type opState struct {
	pending int
	sm      *smState
	idx     int32 // position in the op arena, for pointer-free events
}

// pendingIssue is the in-flight load an SM is currently pushing into the
// L1/MSHR machinery. Each SM owns exactly one (live while issuing, and
// across cycles while blocked on MSHRs), so it is embedded in smState
// and its sector buffer is reused op after op.
type pendingIssue struct {
	op      *opState
	sectors []uint64
	next    int // cursor into sectors (replaces re-slicing)
	compute int
	started bool // outstanding already incremented
}

type sliceState struct {
	id        int
	l2        *cache
	queue     ring[request]
	dramQueue ring[dramReq]
	busyUntil uint64
	// L2-level miss merging (the slice's MSHRs): concurrent misses to the
	// same data or tag sector share one DRAM fetch.
	pendingData *pendTable[*l2Miss]
	pendingTag  *pendTable[*l2Miss]
}

type request struct {
	sector uint64
	sm     int
	store  bool
	atomic bool
	op     *opState
}

type dramKind uint8

const (
	dramDataRead dramKind = iota
	dramTagRead
	dramWrite
)

type dramReq struct {
	kind   dramKind
	slice  int
	sector uint64
}

type l2Miss struct {
	sector      uint64
	slice       int
	sm          int
	store       bool
	atomic      bool
	op          *opState
	needTag     bool
	dataArrived bool
	tagArrived  bool
	tagSector   uint64
}

// allocMiss draws an l2Miss from the free list (or the heap on first
// use), fully initialized to the given value.
func (s *Sim) allocMiss(v l2Miss) *l2Miss {
	if n := len(s.missFree); n > 0 {
		m := s.missFree[n-1]
		s.missFree = s.missFree[:n-1]
		*m = v
		return m
	}
	m := new(l2Miss)
	*m = v
	return m
}

// freeMiss returns a miss whose last reference was just dropped. A miss
// is freed exactly once: loads/atomics complete in maybeCompleteMiss
// (both arrival lists have already released the pointer by then), and
// store-side tag probes complete when their tag arrives.
func (s *Sim) freeMiss(m *l2Miss) {
	s.missFree = append(s.missFree, m)
}

type eventKind uint8

const (
	evL1Fill eventKind = iota
	evDRAMData
	evDRAMTag
	evAtomicDone
)

// event is kept to 24 pointer-free bytes: ring pushes and pops copy
// whole events in one of the hottest loops, and a pointer field would
// add a GC write barrier to every copy. meta packs the kind (low 8
// bits), the sm/slice index (bits 8..31) and, for evAtomicDone, the op's
// arena index (bits 32..63).
type event struct {
	cycle  uint64
	sector uint64
	meta   uint64
}

func evMeta(kind eventKind, unit int) uint64 {
	return uint64(kind) | uint64(uint32(unit))<<8
}

func evOpMeta(kind eventKind, op *opState) uint64 {
	return uint64(kind) | uint64(uint32(op.idx))<<32
}

func (e event) kind() eventKind { return eventKind(e.meta & 0xff) }
func (e event) unit() int       { return int(uint32(e.meta>>8) & 0xffffff) }
func (e event) opIdx() int32    { return int32(e.meta >> 32) }

// nextEvent pops the earliest pending event due by s.now, reporting
// false when none is due. Delivery order is the declared tie rule: by
// cycle; on equal cycles the L1 ring (fills, atomic completions) goes
// before the DRAM ring (data and tag arrivals); within a ring, events
// leave in push order. TestEventTieRule pins it.
func (s *Sim) nextEvent() (event, bool) {
	if s.l1Events.len() > 0 {
		c := s.l1Events.peek().cycle
		if c <= s.now && (s.dramEvents.len() == 0 || c <= s.dramEvents.peek().cycle) {
			return s.l1Events.pop(), true
		}
	}
	if s.dramEvents.len() > 0 && s.dramEvents.peek().cycle <= s.now {
		return s.dramEvents.pop(), true
	}
	return event{}, false
}

// New builds a simulator for the configuration with one trace per SM
// (traces[i] drives SM i; missing entries idle the SM). It simulates
// cfg.Canonical(), so the simulator cannot tell apart two configs whose
// canonical forms (and runner cache keys) are equal.
func New(cfg Config, traces []Trace) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Canonical()
	s := &Sim{cfg: cfg}
	s.interleave = newFastDivMod(uint64(cfg.InterleaveSectors))
	s.sliceMod = newFastDivMod(uint64(cfg.NumSlices))
	if cfg.Mode == ModeCarveOut {
		s.tagSpan = newFastDivMod(cfg.Carve.CoverageBytes() / uint64(cfg.SectorSize))
	}
	s.sms = make([]smState, cfg.NumSMs)
	for i := range s.sms {
		sm := &s.sms[i]
		sm.id = i
		sm.l1 = newCache(cfg.L1SizeBytes, cfg.SectorSize, cfg.L1Assoc)
		sm.mshr = newPendTable[*opState](4 * cfg.L1MSHRs)
		sm.scratch = make([]uint64, 0, 64)
	}
	s.slices = make([]sliceState, cfg.NumSlices)
	for i := range s.slices {
		sl := &s.slices[i]
		sl.id = i
		sl.l2 = newCache(cfg.L2SliceBytes, cfg.SectorSize, cfg.L2Assoc)
		sl.pendingData = newPendTable[*l2Miss](0)
		sl.pendingTag = newPendTable[*l2Miss](0)
	}
	s.attachTraces(traces)
	if cfg.SampleInterval > 0 {
		s.nextSample = cfg.SampleInterval
	}
	return s, nil
}

// attachTraces wires traces to SMs and primes the batch decoders.
func (s *Sim) attachTraces(traces []Trace) {
	for i := range s.sms {
		sm := &s.sms[i]
		sm.trace, sm.batch, sm.done = nil, nil, true
		sm.opBuf, sm.opPos = sm.opBuf[:0], 0
		if i < len(traces) && traces[i] != nil {
			sm.trace = traces[i]
			sm.done = false
			if bt, ok := traces[i].(batchTrace); ok {
				sm.batch = bt
				if sm.opBuf == nil {
					sm.opBuf = make([]WarpOp, 0, opBufSize)
				}
			}
		}
	}
}

// Reset rewinds the simulator to its post-New state with fresh traces,
// reusing every internal allocation (caches, MSHR files, miss-merge
// tables, queues, the event rings and the op arena). A Reset+Run over the
// same trace content is bit-identical to a fresh New+Run with the same
// configuration; the steady-state benchmarks and any caller that sweeps
// many trace sets over one machine configuration use it to amortize
// construction away.
//
// The Stats returned by earlier Run calls remain valid: Reset starts a
// fresh Stats value instead of truncating the previous Samples series.
func (s *Sim) Reset(traces []Trace) {
	for i := range s.sms {
		sm := &s.sms[i]
		sm.l1.reset()
		sm.mshr.reset()
		sm.nextReady = 0
		sm.outstanding = 0
		sm.blocked = false
		sm.filled = false
		sm.pi = pendingIssue{sectors: sm.pi.sectors[:0]}
		sm.boundsToggle = 0
	}
	for i := range s.slices {
		sl := &s.slices[i]
		sl.l2.reset()
		sl.queue.reset()
		sl.dramQueue.reset()
		sl.busyUntil = 0
		sl.pendingData.reset()
		sl.pendingTag.reset()
	}
	s.l1Events.reset()
	s.dramEvents.reset()
	s.ops.reset()
	s.stats = Stats{}
	s.now = 0
	s.lastSample = Stats{}
	s.lastSampleCycle = 0
	s.nextSample = 0
	if s.cfg.SampleInterval > 0 {
		s.nextSample = s.cfg.SampleInterval
	}
	s.attachTraces(traces)
}

// takeSample closes the current telemetry window at s.now: rates are
// deltas against the previous sample, occupancies and queue depths are
// instantaneous. Windows that cross fast-forwarded idle stretches come
// out longer than the interval (one sample per jump, not one per
// skipped boundary), which keeps the series bounded on idle-heavy runs.
func (s *Sim) takeSample() {
	window := s.now - s.lastSampleCycle
	if window == 0 {
		return
	}
	cur, prev := s.stats, s.lastSample
	rate := func(hits, misses uint64) float64 {
		if t := hits + misses; t > 0 {
			return float64(hits) / float64(t)
		}
		return 0
	}
	bytes := 32 * ((cur.DRAMDataReads - prev.DRAMDataReads) +
		(cur.DRAMTagReads - prev.DRAMTagReads) +
		(cur.DRAMWrites - prev.DRAMWrites))
	peakBytesPerCycle := float64(s.cfg.NumSlices) * 32 / float64(s.cfg.DRAMCyclesPerSector)
	smp := Sample{
		Cycle:         s.now,
		Cycles:        window,
		BandwidthUtil: float64(bytes) / float64(window) / peakBytesPerCycle,
		L1HitRate:     rate(cur.L1Hits-prev.L1Hits, cur.L1Misses-prev.L1Misses),
		L2HitRate:     rate(cur.L2Hits-prev.L2Hits, cur.L2Misses-prev.L2Misses),
		TagHitRate:    rate(cur.TagL2Hits-prev.TagL2Hits, cur.TagL2Misses-prev.TagL2Misses),
	}
	mshrs := 0
	for i := range s.sms {
		mshrs += s.sms[i].mshr.count
	}
	smp.MSHROccupancy = float64(mshrs) / float64(len(s.sms)*s.cfg.L1MSHRs)
	var qd, dq int
	for i := range s.slices {
		qd += s.slices[i].queue.len()
		dq += s.slices[i].dramQueue.len()
	}
	smp.QueueDepth = float64(qd) / float64(len(s.slices))
	smp.DRAMQueueDepth = float64(dq) / float64(len(s.slices))

	s.stats.Samples = append(s.stats.Samples, smp)
	if s.cfg.OnSample != nil {
		s.cfg.OnSample(smp)
	}
	s.lastSample = cur
	s.lastSample.Samples = nil // counters only; the series lives in s.stats
	s.lastSampleCycle = s.now
	s.nextSample = s.now + s.cfg.SampleInterval
}

// flushSample closes the final (possibly partial) window so every run
// with any elapsed cycles — including runs shorter than one interval —
// ends with a complete time series.
func (s *Sim) flushSample() {
	if s.cfg.SampleInterval > 0 {
		s.takeSample()
	}
}

func (s *Sim) sliceOf(sector uint64) *sliceState {
	return &s.slices[s.sliceMod.mod(s.interleave.div(sector))]
}

func (s *Sim) tagSectorOf(sector uint64) uint64 {
	return tagRegionSector + s.tagSpan.div(sector)
}

// ErrCycleCap is wrapped by the error of a run that passes the caller's
// own nonzero maxCycles: the caller's limit, not a fault of the
// simulation. The default guard's runaway error does not wrap it.
var ErrCycleCap = errors.New("gpusim: exceeded the requested cycle cap")

// Run executes to completion and returns the statistics. maxCycles guards
// against pathological configurations (0 means a generous default).
func (s *Sim) Run(maxCycles uint64) (Stats, error) {
	return s.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cooperative cancellation: the context is polled
// every few thousand simulation steps, so a cancelled sweep abandons the
// cell promptly without per-cycle overhead. The partial statistics
// accumulated so far are returned alongside the context's error.
//
// Every exit path also stamps the host-side cost telemetry
// (Stats.HostNsPerOp / Stats.HostAllocsPerOp); see their field docs for
// what they do and do not mean.
func (s *Sim) RunContext(ctx context.Context, maxCycles uint64) (st Stats, err error) {
	m0 := heapAllocs()
	t0 := time.Now()
	defer func() {
		if st.WarpOps == 0 {
			return
		}
		st.HostNsPerOp = float64(time.Since(t0).Nanoseconds()) / float64(st.WarpOps)
		st.HostAllocsPerOp = float64(heapAllocs()-m0) / float64(st.WarpOps)
	}()
	capped := maxCycles != 0
	if !capped {
		maxCycles = 2_000_000_000
	}
	const ctxCheckInterval = 1 << 13
	steps := 0
	for {
		if steps++; steps%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				s.stats.Cycles = s.now
				s.flushSample()
				return s.stats, err
			}
		}
		progressed := s.step()
		if s.finished() {
			s.stats.Cycles = s.now
			s.flushSample()
			return s.stats, nil
		}
		if !progressed {
			s.fastForward()
		} else {
			s.now++
		}
		if s.cfg.SampleInterval > 0 && s.now >= s.nextSample {
			s.takeSample()
		}
		if s.now > maxCycles {
			if capped {
				return s.stats, fmt.Errorf("%w (%d cycles)", ErrCycleCap, maxCycles)
			}
			return s.stats, fmt.Errorf("gpusim: exceeded %d cycles (deadlock or runaway workload)", maxCycles)
		}
	}
}

// heapAllocs is the process's cumulative heap allocation count, the
// runtime.MemStats.Mallocs sum (tiny objects included) read through
// runtime/metrics, which unlike runtime.ReadMemStats does not stop the
// world. It counts an allocation once its span leaves a P's cache, so
// a read can trail the exact count by part of a span per size class.
func heapAllocs() uint64 {
	samples := [...]metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}
	metrics.Read(samples[:])
	return samples[0].Value.Uint64() + samples[1].Value.Uint64()
}

// step performs one cycle of work; it reports whether anything happened
// (used to fast-forward idle stretches).
func (s *Sim) step() bool {
	progressed := false

	// 1. Deliver due events.
	for {
		e, ok := s.nextEvent()
		if !ok {
			break
		}
		progressed = true
		s.deliver(e)
	}

	// 2. Each L2 slice services one request and starts DRAM transfers.
	for i := range s.slices {
		sl := &s.slices[i]
		if sl.queue.len() > 0 {
			req := sl.queue.pop()
			s.serviceL2(sl, req)
			progressed = true
		}
		if sl.dramQueue.len() > 0 && sl.busyUntil <= s.now {
			dr := sl.dramQueue.pop()
			sl.busyUntil = s.now + uint64(s.cfg.DRAMCyclesPerSector)
			progressed = true
			switch dr.kind {
			case dramWrite:
				s.stats.DRAMWrites++
			case dramDataRead:
				s.stats.DRAMDataReads++
				s.dramEvents.push(event{cycle: s.now + uint64(s.cfg.DRAMLatency), sector: dr.sector, meta: evMeta(evDRAMData, dr.slice)})
			case dramTagRead:
				s.stats.DRAMTagReads++
				s.dramEvents.push(event{cycle: s.now + uint64(s.cfg.DRAMLatency), sector: dr.sector, meta: evMeta(evDRAMTag, dr.slice)})
			}
		}
	}

	// 3. SMs issue.
	for i := range s.sms {
		if s.issue(&s.sms[i]) {
			progressed = true
		}
	}
	return progressed
}

// deliver applies one event's effect. Every push it makes lies at least
// one cycle past s.now (Validate requires both latencies ≥ 1), so no
// event it creates is due in the cycle that delivers it.
func (s *Sim) deliver(e event) {
	switch e.kind() {
	case evL1Fill:
		s.l1Fill(e.unit(), e.sector)
	case evDRAMData:
		s.dataArrived(e.unit(), e.sector)
	case evDRAMTag:
		s.tagArrived(e.unit(), e.sector)
	case evAtomicDone:
		s.opSectorDone(s.ops.at(e.opIdx()))
	}
}

// issue advances one SM by at most one op (or one blocked-op retry,
// made only after an L1 fill; see smState.filled).
func (s *Sim) issue(sm *smState) bool {
	if sm.blocked {
		if !sm.filled {
			return false
		}
		return s.issueSectors(sm)
	}
	if sm.done || s.now < sm.nextReady || sm.outstanding >= s.cfg.MaxOutstandingOps {
		return false
	}
	op, ok := sm.nextOp()
	if !ok {
		sm.done = true
		return false
	}
	s.stats.WarpOps++
	sectors := coalesce(op.Addrs, s.cfg.SectorSize, sm.scratch)
	sm.scratch = sectors[:0]

	compute := op.Compute
	if s.cfg.Mode == ModeBoundsTable {
		// The bounds-table lookup is pipelined with the LD/ST path, so
		// most checks hide completely; every other memory instruction,
		// however, conflicts on the table port and stalls issue by
		// BoundsCk cycles. This reproduces the §6 observation that a
		// GPUShield-like scheme is nearly free for most workloads but
		// penalizes access-rate-bound ones by up to ~14%.
		sm.boundsToggle++
		if sm.boundsToggle%2 == 0 {
			compute += s.cfg.BoundsCk
		}
	}

	if op.Atomic {
		// Near-memory atomics (§4.2, Figure 6a): serviced at the L2 slice
		// behind an ECC decode/encode pair, bypassing the L1 entirely. The
		// warp waits for the returned old value, so atomics count against
		// outstanding ops like loads; under a carve-out the lock tag must
		// be fetched for the check, just as for loads and stores.
		s.stats.Atomics++
		st := s.ops.get(sm, len(sectors))
		for _, sec := range sectors {
			s.sliceOf(sec).queue.push(request{sector: sec, sm: sm.id, atomic: true, op: st})
		}
		if st.pending > 0 {
			sm.outstanding++
		}
		sm.nextReady = s.now + 1 + uint64(compute)
		return true
	}

	if op.Store {
		s.stats.Stores++
		for _, sec := range sectors {
			// Write-through, no-allocate L1: stores stream to the L2.
			s.sliceOf(sec).queue.push(request{sector: sec, sm: sm.id, store: true})
		}
		sm.nextReady = s.now + 1 + uint64(compute)
		return true
	}

	s.stats.Loads++
	sm.pi = pendingIssue{
		op:      s.ops.get(sm, 0),
		sectors: append(sm.pi.sectors[:0], sectors...),
		compute: compute,
	}
	return s.issueSectors(sm)
}

// issueSectors pushes the SM's current load (sm.pi) into the L1/MSHR
// machinery, blocking (and resuming later) when MSHRs run out.
func (s *Sim) issueSectors(sm *smState) bool {
	pi := &sm.pi
	progressed := false
	for pi.next < len(pi.sectors) {
		sec := pi.sectors[pi.next]
		if sm.l1.lookup(sec, false) {
			s.stats.L1Hits++
			pi.next++
			progressed = true
			continue
		}
		slot, found := sm.mshr.probe(sec)
		if found {
			// Merge into the outstanding miss.
			s.stats.L1Hits++ // an MSHR merge costs no extra traffic
			sm.mshr.addWaiter(slot, pi.op)
			pi.op.pending++
			pi.next++
			progressed = true
			continue
		}
		if sm.mshr.count >= s.cfg.L1MSHRs {
			sm.blocked, sm.filled = true, false
			return progressed
		}
		s.stats.L1Misses++
		sm.mshr.putAt(slot, sec, pi.op)
		pi.op.pending++
		sl := s.sliceOf(sec)
		sl.queue.push(request{sector: sec, sm: sm.id, store: false, op: pi.op})
		pi.next++
		progressed = true
	}
	// Fully issued.
	sm.blocked = false
	if pi.op.pending > 0 && !pi.started {
		sm.outstanding++
		pi.started = true
	}
	sm.nextReady = s.now + 1 + uint64(pi.compute)
	return progressed
}

// serviceL2 handles one request at an L2 slice.
func (s *Sim) serviceL2(sl *sliceState, req request) {
	if req.atomic {
		if sl.l2.lookup(req.sector, true) {
			s.stats.L2Hits++
			s.l1Events.push(event{cycle: s.now + uint64(s.cfg.L1Latency), meta: evOpMeta(evAtomicDone, req.op)})
			return
		}
		s.stats.L2Misses++
		miss := s.allocMiss(l2Miss{sector: req.sector, slice: sl.id, sm: req.sm, atomic: true, op: req.op})
		if slot, found := sl.pendingData.probe(req.sector); found {
			sl.pendingData.addWaiter(slot, miss)
		} else {
			sl.pendingData.putAt(slot, req.sector, miss)
			sl.dramQueue.push(dramReq{kind: dramDataRead, slice: sl.id, sector: req.sector})
		}
		if s.cfg.Mode == ModeCarveOut {
			s.fetchTagIfMissing(miss)
		}
		return
	}
	if req.store {
		if sl.l2.lookup(req.sector, true) {
			s.stats.L2Hits++
			return
		}
		s.stats.L2Misses++
		// Full-sector store: write-allocate without fetching the data.
		if sl.l2.insert(req.sector, true) {
			sl.dramQueue.push(dramReq{kind: dramWrite})
		}
		// The carve-out still needs the lock tag for the store-side check.
		if s.cfg.Mode == ModeCarveOut {
			s.fetchStoreTag(sl, req.sector)
		}
		return // stores complete at the SM; only traffic is modeled
	}

	if sl.l2.lookup(req.sector, false) {
		s.stats.L2Hits++
		s.l1Events.push(event{cycle: s.now + uint64(s.cfg.L1Latency), sector: req.sector, meta: evMeta(evL1Fill, req.sm)})
		return
	}
	s.stats.L2Misses++
	miss := s.allocMiss(l2Miss{sector: req.sector, slice: sl.id, sm: req.sm, op: req.op})
	if slot, found := sl.pendingData.probe(req.sector); found {
		sl.pendingData.addWaiter(slot, miss)
	} else {
		sl.pendingData.putAt(slot, req.sector, miss)
		sl.dramQueue.push(dramReq{kind: dramDataRead, slice: sl.id, sector: req.sector})
	}
	if s.cfg.Mode == ModeCarveOut {
		s.fetchTagIfMissing(miss)
	}
}

// fetchTagIfMissing performs the parallel lock-tag lookup of §5.1: the
// probe is routed over the crossbar to the tag sector's own home slice,
// where tag sectors are cached in that slice's L2. On a miss it merges
// into any in-flight tag fetch or issues a DRAM tag read (linked to the
// data miss for loads so the response waits for both).
func (s *Sim) fetchTagIfMissing(miss *l2Miss) {
	miss.tagSector = s.tagSectorOf(miss.sector)
	tsl := s.sliceOf(miss.tagSector)
	if tsl.l2.lookup(miss.tagSector, false) {
		s.stats.TagL2Hits++
		return
	}
	s.stats.TagL2Misses++
	miss.needTag = true
	if slot, found := tsl.pendingTag.probe(miss.tagSector); found {
		tsl.pendingTag.addWaiter(slot, miss)
	} else {
		tsl.pendingTag.putAt(slot, miss.tagSector, miss)
		tsl.dramQueue.push(dramReq{kind: dramTagRead, slice: tsl.id, sector: miss.tagSector})
	}
}

// fetchStoreTag is the store-side lock-tag probe: unlike loads there is
// no data miss to link, so a tracking miss is allocated only when the
// tag actually has to be fetched (it is freed when the tag arrives).
func (s *Sim) fetchStoreTag(sl *sliceState, sector uint64) {
	tagSector := s.tagSectorOf(sector)
	tsl := s.sliceOf(tagSector)
	if tsl.l2.lookup(tagSector, false) {
		s.stats.TagL2Hits++
		return
	}
	s.stats.TagL2Misses++
	miss := s.allocMiss(l2Miss{sector: sector, slice: sl.id, store: true, needTag: true, tagSector: tagSector})
	if slot, found := tsl.pendingTag.probe(tagSector); found {
		tsl.pendingTag.addWaiter(slot, miss)
	} else {
		tsl.pendingTag.putAt(slot, tagSector, miss)
		tsl.dramQueue.push(dramReq{kind: dramTagRead, slice: tsl.id, sector: tagSector})
	}
}

func (s *Sim) dataArrived(slice int, sector uint64) {
	sl := &s.slices[slice]
	waiters := sl.pendingData.take(sector)
	if sl.l2.insert(sector, false) {
		sl.dramQueue.push(dramReq{kind: dramWrite, slice: slice})
	}
	for _, m := range waiters {
		m.dataArrived = true
		s.maybeCompleteMiss(m)
	}
	if waiters != nil {
		sl.pendingData.recycle(waiters)
	}
}

func (s *Sim) tagArrived(slice int, tagSector uint64) {
	sl := &s.slices[slice]
	waiters := sl.pendingTag.take(tagSector)
	if sl.l2.insert(tagSector, false) {
		sl.dramQueue.push(dramReq{kind: dramWrite, slice: slice})
	}
	for _, m := range waiters {
		m.tagArrived = true
		if m.store {
			// Store-side probes live only in the tag list (the write
			// already allocated in serviceL2); this arrival dropped their
			// last reference. maybeCompleteMiss would early-return for
			// them anyway.
			s.freeMiss(m)
			continue
		}
		s.maybeCompleteMiss(m)
	}
	if waiters != nil {
		sl.pendingTag.recycle(waiters)
	}
}

func (s *Sim) maybeCompleteMiss(miss *l2Miss) {
	if miss.store {
		return // store misses already write-allocated; the tag fill is enough
	}
	if !miss.dataArrived || (miss.needTag && !miss.tagArrived) {
		return
	}
	// Both arrivals have released the miss from their merge lists; after
	// the completion below no reference remains, so it goes back on the
	// free list.
	if miss.atomic {
		// The L2 performs the RMW: dirty the freshly filled line and
		// return the old value to the SM without filling the L1.
		s.slices[miss.slice].l2.lookup(miss.sector, true)
		s.l1Events.push(event{cycle: s.now + uint64(s.cfg.L1Latency), meta: evOpMeta(evAtomicDone, miss.op)})
		s.freeMiss(miss)
		return
	}
	s.l1Events.push(event{cycle: s.now + uint64(s.cfg.L1Latency), sector: miss.sector, meta: evMeta(evL1Fill, miss.sm)})
	s.freeMiss(miss)
}

// opSectorDone retires one completed sector of a non-L1 (atomic) op.
func (s *Sim) opSectorDone(op *opState) {
	op.pending--
	if op.pending == 0 {
		op.sm.outstanding--
	}
}

func (s *Sim) l1Fill(smID int, sector uint64) {
	sm := &s.sms[smID]
	sm.l1.insert(sector, false) // write-through L1: evictions are silent
	sm.filled = true
	waiters := sm.mshr.take(sector)
	if waiters == nil {
		return
	}
	for _, op := range waiters {
		op.pending--
		if op.pending == 0 {
			op.sm.outstanding--
		}
	}
	sm.mshr.recycle(waiters)
}

func (s *Sim) finished() bool {
	if s.l1Events.len() > 0 || s.dramEvents.len() > 0 {
		return false
	}
	for i := range s.slices {
		if s.slices[i].queue.len() > 0 || s.slices[i].dramQueue.len() > 0 {
			return false
		}
	}
	for i := range s.sms {
		if !s.sms[i].done || s.sms[i].blocked || s.sms[i].outstanding > 0 {
			return false
		}
	}
	return true
}

// fastForward jumps to the next time anything can happen: the earliest
// event, DRAM channel free time, or SM ready time.
func (s *Sim) fastForward() {
	next := s.now + 1
	best := ^uint64(0)
	// step delivered every due event, so each ring head lies past s.now.
	if s.l1Events.len() > 0 {
		best = s.l1Events.peek().cycle
	}
	if s.dramEvents.len() > 0 && s.dramEvents.peek().cycle < best {
		best = s.dramEvents.peek().cycle
	}
	for i := range s.slices {
		sl := &s.slices[i]
		if sl.dramQueue.len() > 0 && sl.busyUntil > s.now && sl.busyUntil < best {
			best = sl.busyUntil
		}
	}
	for i := range s.sms {
		sm := &s.sms[i]
		if !sm.done && sm.outstanding < s.cfg.MaxOutstandingOps && !sm.blocked &&
			sm.nextReady > s.now && sm.nextReady < best {
			best = sm.nextReady
		}
	}
	if best != ^uint64(0) && best > next {
		next = best
	}
	s.now = next
}
