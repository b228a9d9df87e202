package gpusim_test

// Hot-path benchmarks over the three conformance workloads × all six
// tagging modes — the exact cells cmd/conformance pins, so the perf
// trajectory in BENCH_results.json and the bit-identity gate cover the
// same ground. Three families:
//
//   - BenchmarkSimCold: one fresh Sim per iteration (New + Run), the
//     runner's per-cell usage pattern. Allocations include simulator
//     construction.
//   - BenchmarkSimSteady: one Sim reused across iterations via Reset —
//     the steady-state hot path with construction amortized away. This
//     is the family `make bench-gate` tracks: its allocs/op must stay
//     near zero and its ns/op must not regress.
//   - BenchmarkSimGenerated: New + Run over Workload.Traces, exactly the
//     runner's per-cell path, so trace generation (the address arena)
//     is inside the measurement; also tracked by `make bench-gate`.
//
// All three report ns/warp-op (wall nanoseconds of host time per
// simulated warp instruction), the per-cell unit the runner telemetry
// exposes.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/workload"
)

var benchWorkloads = []string{"stream-copy-16MB", "mlperf-ssd-l0", "hpc-micro0"}

var benchModes = []struct {
	label string
	mode  gpusim.TagMode
	carve gpusim.CarveOut
}{
	{"none", gpusim.ModeNone, gpusim.CarveOut{}},
	{"imt", gpusim.ModeIMT, gpusim.CarveOut{}},
	{"ecc-steal", gpusim.ModeECCSteal, gpusim.CarveOut{}},
	{"carve-low", gpusim.ModeCarveOut, gpusim.CarveOutLow},
	{"carve-high", gpusim.ModeCarveOut, gpusim.CarveOutHigh},
	{"bounds-table", gpusim.ModeBoundsTable, gpusim.CarveOut{}},
}

func catalogWorkload(tb testing.TB, name string) workload.Workload {
	tb.Helper()
	for _, w := range workload.Catalog() {
		if w.Name == name {
			return w
		}
	}
	tb.Fatalf("workload %q not in the catalog", name)
	return workload.Workload{}
}

// benchOps drains a catalog workload's generator traces into plain op
// slices once per benchmark, so iterations replay identical streams
// without re-running the generators.
func benchOps(tb testing.TB, name string, numSMs int) [][]gpusim.WarpOp {
	tb.Helper()
	out := make([][]gpusim.WarpOp, numSMs)
	for i, tr := range catalogWorkload(tb, name).Traces(numSMs) {
		for {
			op, ok := tr.Next()
			if !ok {
				break
			}
			out[i] = append(out[i], op)
		}
	}
	return out
}

func benchConfig(m struct {
	label string
	mode  gpusim.TagMode
	carve gpusim.CarveOut
}) gpusim.Config {
	cfg := gpusim.DefaultConfig()
	cfg.Mode = m.mode
	cfg.Carve = m.carve
	return cfg
}

func reportWarpOp(b *testing.B, warpOps uint64) {
	if warpOps > 0 && b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(warpOps), "ns/warp-op")
	}
}

func BenchmarkSimSteady(b *testing.B) {
	for _, name := range benchWorkloads {
		ops := benchOps(b, name, gpusim.DefaultConfig().NumSMs)
		for _, m := range benchModes {
			b.Run(fmt.Sprintf("%s/%s", name, m.label), func(b *testing.B) {
				cfg := benchConfig(m)
				traces := make([]gpusim.Trace, len(ops))
				slices := make([]*gpusim.SliceTrace, len(ops))
				for j := range ops {
					slices[j] = &gpusim.SliceTrace{Ops: ops[j]}
					traces[j] = slices[j]
				}
				sim, err := gpusim.New(cfg, traces)
				if err != nil {
					b.Fatal(err)
				}
				var warpOps uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 {
						for _, tr := range slices {
							tr.Rewind()
						}
						sim.Reset(traces)
					}
					st, err := sim.Run(0)
					if err != nil {
						b.Fatal(err)
					}
					warpOps = st.WarpOps
				}
				b.StopTimer()
				reportWarpOp(b, warpOps)
			})
		}
	}
}

// BenchmarkTraceDecodeStream tracks the chunked IMTTRC decoder — the
// upload-validation and store-replay hot path. One iteration scans a
// full recorded stream-copy-16MB trace blob through TraceScanner in
// 512-op chunks (the same bounded-memory walk IndexTraceStream and the
// trace store's Put perform), reporting MB/s via b.SetBytes plus
// ns/trace-op. Gated by `make bench-gate`.
func BenchmarkTraceDecodeStream(b *testing.B) {
	ops := benchOps(b, "stream-copy-16MB", gpusim.DefaultConfig().NumSMs)
	traces := make([]gpusim.Trace, len(ops))
	for j := range ops {
		traces[j] = &gpusim.SliceTrace{Ops: ops[j]}
	}
	var blob bytes.Buffer
	if err := gpusim.WriteTraces(&blob, traces); err != nil {
		b.Fatal(err)
	}
	data := blob.Bytes()
	chunk := make([]gpusim.WarpOp, 512)
	var totalOps uint64
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := gpusim.NewTraceScanner(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, ok, err := sc.NextSM()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			for {
				n, err := sc.ReadOps(chunk)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					break
				}
			}
		}
		idx, err := sc.Finish()
		if err != nil {
			b.Fatal(err)
		}
		totalOps = idx.TotalOps
	}
	b.StopTimer()
	if totalOps > 0 && b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(totalOps), "ns/trace-op")
	}
}

func BenchmarkSimCold(b *testing.B) {
	for _, name := range benchWorkloads {
		ops := benchOps(b, name, gpusim.DefaultConfig().NumSMs)
		for _, m := range benchModes {
			b.Run(fmt.Sprintf("%s/%s", name, m.label), func(b *testing.B) {
				cfg := benchConfig(m)
				traces := make([]gpusim.Trace, len(ops))
				var warpOps uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Fresh SliceTrace headers share the op slices; the
					// simulator never mutates ops (pinned by the
					// clone-isolation conformance invariant).
					for j := range ops {
						traces[j] = &gpusim.SliceTrace{Ops: ops[j]}
					}
					sim, err := gpusim.New(cfg, traces)
					if err != nil {
						b.Fatal(err)
					}
					st, err := sim.Run(0)
					if err != nil {
						b.Fatal(err)
					}
					warpOps = st.WarpOps
				}
				b.StopTimer()
				reportWarpOp(b, warpOps)
			})
		}
	}
}

func BenchmarkSimGenerated(b *testing.B) {
	for _, name := range benchWorkloads {
		w := catalogWorkload(b, name)
		for _, m := range benchModes {
			b.Run(fmt.Sprintf("%s/%s", name, m.label), func(b *testing.B) {
				cfg := benchConfig(m)
				var warpOps uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sim, err := gpusim.New(cfg, w.Traces(cfg.NumSMs))
					if err != nil {
						b.Fatal(err)
					}
					st, err := sim.Run(0)
					if err != nil {
						b.Fatal(err)
					}
					warpOps = st.WarpOps
				}
				b.StopTimer()
				reportWarpOp(b, warpOps)
			})
		}
	}
}
