package gpusim

import (
	"math/rand"
	"testing"
)

// mixedTraces gives each SM a random mix of loads, stores and atomics
// over the footprint, so fills, atomic completions, data and tag
// arrivals all reach the event rings.
func mixedTraces(n, ops int, footprint uint64, seed int64) []Trace {
	out := make([]Trace, n)
	for sm := 0; sm < n; sm++ {
		rng := rand.New(rand.NewSource(seed + int64(sm)))
		out[sm] = &FuncTrace{N: ops, Gen: func(i int, addrs []uint64) WarpOp {
			op := WarpOp{Addrs: addrs, Compute: rng.Intn(4)}
			switch r := rng.Intn(10); {
			case r == 0:
				op.Atomic = true
			case r <= 2:
				op.Store = true
			}
			for t := 0; t < 8; t++ {
				op.Addrs = append(op.Addrs, uint64(rng.Int63n(int64(footprint/32)))*32)
			}
			return op
		}}
	}
	return out
}

func isL1Event(e event) bool { return e.kind() == evL1Fill || e.kind() == evAtomicDone }

// checkPushes fails unless the k newest events on r belong to the ring's
// latency class and keep it in cycle order.
func checkPushes(t *testing.T, s *Sim, r *ring[event], l1 bool, k int) {
	t.Helper()
	at := func(i int) event { return r.buf[(r.head+i)&(len(r.buf)-1)] }
	for i := r.len() - k; i < r.len(); i++ {
		e := at(i)
		if isL1Event(e) != l1 {
			t.Fatalf("cycle %d: event kind %d pushed on the wrong ring", s.now, e.kind())
		}
		if i > 0 && at(i-1).cycle > e.cycle {
			t.Fatalf("cycle %d: push at cycle %d lands behind cycle %d", s.now, e.cycle, at(i-1).cycle)
		}
	}
}

// TestEventTieRule pins the delivery order Sim.nextEvent declares:
// events leave by cycle; on equal cycles the L1 ring's go before the
// DRAM ring's; each ring stays in cycle order after every push. It
// drives RunContext's loop by hand, delivering each cycle's due events
// through nextEvent and deliver before step runs the rest of the cycle
// (step then finds nothing due, since every push lands in a later
// cycle).
func TestEventTieRule(t *testing.T) {
	starved := DefaultConfig()
	starved.L1MSHRs, starved.MaxOutstandingOps = 4, 2
	carve := DefaultConfig()
	carve.Mode, carve.Carve = ModeCarveOut, CarveOutLow
	equal := DefaultConfig()
	equal.L1Latency = equal.DRAMLatency
	inverted := DefaultConfig()
	inverted.L1Latency, inverted.DRAMLatency = 250, 40
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"mshr-starved", starved},
		{"carve-low", carve},
		{"equal-latency", equal},
		{"l1-slower", inverted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg, mixedTraces(tc.cfg.NumSMs, 400, 4<<20, 7))
			if err != nil {
				t.Fatal(err)
			}
			var last event
			delivered, ties := 0, 0
			for !s.finished() {
				if s.now > 50_000_000 {
					t.Fatal("runaway simulation")
				}
				progressed := false
				for {
					e, ok := s.nextEvent()
					if !ok {
						break
					}
					if e.cycle > s.now {
						t.Fatalf("cycle %d: delivered an event due at %d", s.now, e.cycle)
					}
					if delivered > 0 {
						switch {
						case e.cycle < last.cycle:
							t.Fatalf("cycle %d: event of cycle %d delivered after one of cycle %d", s.now, e.cycle, last.cycle)
						case e.cycle == last.cycle && isL1Event(e) && !isL1Event(last):
							t.Fatalf("cycle %d: L1-ring event delivered after a DRAM-ring event of the same cycle", s.now)
						case e.cycle == last.cycle && !isL1Event(e) && isL1Event(last):
							ties++
						}
					}
					last = e
					delivered++
					progressed = true
					n1, n2 := s.l1Events.len(), s.dramEvents.len()
					s.deliver(e)
					checkPushes(t, s, &s.l1Events, true, s.l1Events.len()-n1)
					checkPushes(t, s, &s.dramEvents, false, s.dramEvents.len()-n2)
				}
				n1, n2 := s.l1Events.len(), s.dramEvents.len()
				if s.step() {
					progressed = true
				}
				checkPushes(t, s, &s.l1Events, true, s.l1Events.len()-n1)
				checkPushes(t, s, &s.dramEvents, false, s.dramEvents.len()-n2)
				if progressed {
					s.now++
				} else {
					s.fastForward()
				}
			}
			if ties == 0 {
				t.Fatalf("no cycle delivered both an L1-ring and a DRAM-ring event (%d delivered); the tie rule went untested", delivered)
			}
		})
	}
}
