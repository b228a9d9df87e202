package gpusim

import "fmt"

// WarpOp is one warp-wide memory instruction after address generation:
// the per-thread addresses it touches, whether it stores, and the compute
// cycles separating it from the next memory instruction (the workload's
// arithmetic intensity).
type WarpOp struct {
	Store bool
	// Atomic marks a near-memory read-modify-write serviced at the L2
	// (atomicAdd and friends); mutually exclusive with Store.
	Atomic bool
	// Addrs are the byte addresses the 32 threads access (duplicates and
	// fewer-than-32 entries allowed; the coalescer reduces them to
	// distinct sectors). Bits [TagShift, 64) optionally carry the
	// per-thread key tag: §4.2 requires the coalescer to split apart
	// neighboring addresses whose key tags differ, and the simulator
	// honors that by coalescing on (tag, sector) pairs.
	Addrs []uint64
	// Compute is the issue gap to the next op in cycles.
	Compute int
}

// TagShift is the bit position where WarpOp addresses carry key tags
// (mirroring the 49-bit VA of imt.Config; tags above, address below).
const TagShift = 49

// Trace yields a stream of warp ops for one SM.
type Trace interface {
	// Next returns the next op; ok=false when the stream is exhausted.
	Next() (op WarpOp, ok bool)
}

// batchTrace is the optional fast path the simulator probes for: traces
// that can decode many ops at once into a caller-supplied buffer save an
// interface call per warp op. Batching must yield exactly the sequence
// repeated Next calls would — the simulator's results are identical
// either way (it only changes when the trace is decoded, not what it
// decodes). SliceTrace, FuncTrace and OpenTraceAt replays implement it.
type batchTrace interface {
	NextBatch(dst []WarpOp) int
}

// SliceTrace adapts a materialized op list to the Trace interface.
type SliceTrace struct {
	Ops []WarpOp
	pos int
}

// Next implements Trace.
func (s *SliceTrace) Next() (WarpOp, bool) {
	if s.pos >= len(s.Ops) {
		return WarpOp{}, false
	}
	op := s.Ops[s.pos]
	s.pos++
	return op, true
}

// NextBatch copies up to len(dst) upcoming ops into dst and advances the
// stream, returning how many were delivered (0 at end of stream). The
// batched equivalent of Next; the simulator uses it to decode the trace
// in cache-friendly chunks.
func (s *SliceTrace) NextBatch(dst []WarpOp) int {
	n := copy(dst, s.Ops[s.pos:])
	s.pos += n
	return n
}

// Rewind restarts the trace from its first op without copying (the op
// slices are shared with the original stream). It lets one materialized
// trace drive many sequential simulations — e.g. Sim.Reset loops — where
// CloneTraces' deep copy would be wasted work.
func (s *SliceTrace) Rewind() { s.pos = 0 }

// Clone returns an independent, rewound deep copy of the trace (the ops
// and their address slices are copied, so the two streams never alias).
func (s *SliceTrace) Clone() Trace {
	ops := make([]WarpOp, len(s.Ops))
	for i, op := range s.Ops {
		op.Addrs = append([]uint64(nil), op.Addrs...)
		ops[i] = op
	}
	return &SliceTrace{Ops: ops}
}

// CloneTraces returns independent, rewound copies of replayable traces
// so one recorded stream can drive several simulations (a Trace is otherwise a one-shot stream that
// the first Sim consumes). Every input must implement Clone() Trace —
// SliceTrace and OpenTraceAt replays qualify; generator-backed traces
// such as FuncTrace do not, because their closures may carry hidden
// state (an RNG) that a shallow copy would share. Nil entries (idle SMs)
// are preserved.
func CloneTraces(traces []Trace) ([]Trace, error) {
	out := make([]Trace, len(traces))
	for i, tr := range traces {
		if tr == nil {
			continue
		}
		c, ok := tr.(interface{ Clone() Trace })
		if !ok {
			return nil, fmt.Errorf("gpusim: trace %d (%T) is not cloneable; materialize it into a SliceTrace first", i, tr)
		}
		out[i] = c.Clone()
	}
	return out, nil
}

// FuncTrace adapts a generator function yielding n ops.
type FuncTrace struct {
	N   int
	Gen func(i int) WarpOp
	pos int
}

// Next implements Trace.
func (f *FuncTrace) Next() (WarpOp, bool) {
	if f.pos >= f.N {
		return WarpOp{}, false
	}
	op := f.Gen(f.pos)
	f.pos++
	return op, true
}

// NextBatch fills dst by calling Gen on consecutive indices — the same
// order Next would use, so generators whose closures carry state (an
// RNG advancing call by call) observe an identical call sequence.
func (f *FuncTrace) NextBatch(dst []WarpOp) int {
	n := 0
	for n < len(dst) && f.pos < f.N {
		dst[n] = f.Gen(f.pos)
		f.pos++
		n++
	}
	return n
}

// coalesce reduces per-thread addresses to the distinct (key tag,
// sector) pairs they touch, preserving first-touch order. This is the
// §4.2 coalescer: the upper VA bits are extracted BEFORE coalescing so
// that neighboring addresses with differing key tags are never merged
// into one request — two threads touching the same 32B sector under
// different tags produce two sector requests (each needing its own tag
// check downstream). The returned values keep the tag in the high bits;
// the memory system's sector identity is the full tagged value, which
// also means differently-tagged aliases occupy distinct cache entries,
// a conservative model of the per-request tag plumbing.
func coalesce(addrs []uint64, sectorSize int, out []uint64) []uint64 {
	out = out[:0]
	for _, a := range addrs {
		tag := a >> TagShift << TagShift
		s := tag | (a&(1<<TagShift-1))/uint64(sectorSize)
		dup := false
		for _, prev := range out {
			if prev == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}
