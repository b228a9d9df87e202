package gpusim

import "testing"

// fillDue reports whether an L1 fill for the SM is due this cycle.
func fillDue(s *Sim, sm int) bool {
	r := s.l1Events
	for i := 0; i < r.len(); i++ {
		e := r.buf[(r.head+i)&(len(r.buf)-1)]
		if e.kind() == evL1Fill && e.unit() == sm && e.cycle <= s.now {
			return true
		}
	}
	return false
}

// TestBlockedSMWaitsForFill pins the fill wake rule: an SM blocked on
// L1 MSHRs makes no L1 lookup (its cache clock holds still) in any
// cycle that delivers it no L1 fill. It drives RunContext's loop by
// hand on a machine starved of MSHRs.
func TestBlockedSMWaitsForFill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1MSHRs = 4
	cfg.MaxOutstandingOps = 2
	s, err := New(cfg, randomTraces(cfg.NumSMs, 400, 64<<20, 3))
	if err != nil {
		t.Fatal(err)
	}
	waiting := make([]bool, len(s.sms))
	clocks := make([]uint64, len(s.sms))
	waits := 0
	for !s.finished() {
		if s.now > 50_000_000 {
			t.Fatal("run did not finish")
		}
		for i := range s.sms {
			waiting[i] = s.sms[i].blocked && !fillDue(s, i)
			clocks[i] = s.sms[i].l1.clock
		}
		progressed := s.step()
		for i := range s.sms {
			if !waiting[i] {
				continue
			}
			waits++
			if got := s.sms[i].l1.clock; got != clocks[i] {
				t.Fatalf("cycle %d: SM %d is blocked with no fill due, yet its L1 clock moved %d -> %d", s.now, i, clocks[i], got)
			}
		}
		if progressed {
			s.now++
		} else {
			s.fastForward()
		}
	}
	if waits == 0 {
		t.Fatal("no SM ever waited blocked; the starved machine drives nothing")
	}
}

// wideGen builds op i with a width that varies op to op, including ops
// wider than one arena slot and one wider than a whole batch's arena.
func wideGen(i int, addrs []uint64) WarpOp {
	width := 1 + i%5
	switch i {
	case 13:
		width = arenaSlot + 8
	case 20:
		width = 10 * arenaSlot
	}
	for j := 0; j < width; j++ {
		addrs = append(addrs, uint64(i)<<20|uint64(j)*32)
	}
	return WarpOp{Store: i%3 == 1, Compute: i % 4, Addrs: addrs}
}

const wideOps = 41

func wideReference() []WarpOp {
	ops := make([]WarpOp, wideOps)
	for i := range ops {
		ops[i] = wideGen(i, nil)
	}
	return ops
}

// wideTraces returns fresh generator and replay traces over wideGen.
func wideTraces(t *testing.T) map[string]Trace {
	t.Helper()
	blob := encodeTraces(t, []Trace{&SliceTrace{Ops: wideReference()}})
	return map[string]Trace{
		"FuncTrace": &FuncTrace{N: wideOps, Gen: wideGen},
		"blobTrace": replayBlob(t, blob)[0],
	}
}

// TestNextBatchMatchesNext: across batch boundaries, the generator and
// replay traces deliver the same ops by value from NextBatch as from
// Next, a batch's ops never share address storage, and an op wider
// than one arena slot (or than the whole arena) still round-trips.
func TestNextBatchMatchesNext(t *testing.T) {
	for name, tr := range wideTraces(t) {
		want := drain(wideTraces(t)[name])
		bt := tr.(batchTrace)
		var got []WarpOp
		buf := make([]WarpOp, 7)
		for {
			n := bt.NextBatch(buf)
			if n == 0 {
				break
			}
			// Batch ops are valid until the next call: copy them out.
			for _, op := range buf[:n] {
				op.Addrs = append([]uint64(nil), op.Addrs...)
				got = append(got, op)
			}
		}
		if !opsEqual(got, want) {
			t.Errorf("%s: NextBatch ops differ from Next's", name)
		}
	}
}

// TestNextOpsOutliveLaterCalls: an op Next returned is the caller's to
// keep — later Next and NextBatch calls on the same trace leave it
// intact. Recording (WriteTraces) and the benchmarks' benchOps keep
// every op Next returns.
func TestNextOpsOutliveLaterCalls(t *testing.T) {
	want := wideReference()
	for name, tr := range wideTraces(t) {
		bt := tr.(batchTrace)
		var kept []WarpOp
		var keptIdx []int
		buf := make([]WarpOp, 3)
		for i := 0; i < wideOps; {
			op, ok := tr.Next()
			if !ok {
				t.Fatalf("%s: stream ended at op %d", name, i)
			}
			kept = append(kept, op)
			keptIdx = append(keptIdx, i)
			i += 1 + bt.NextBatch(buf)
		}
		for k, op := range kept {
			if !opsEqual([]WarpOp{op}, want[keptIdx[k]:keptIdx[k]+1]) {
				t.Errorf("%s: op %d from Next changed after later calls", name, keptIdx[k])
			}
		}
	}
}
