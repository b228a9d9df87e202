package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// poissonArrivals returns the offsets of a Poisson process of the given
// rate (per second) in [start, start+span), drawn from rng: exponential
// gaps with mean 1/rate. The same rng state gives the same schedule.
func poissonArrivals(rng *rand.Rand, rate float64, start, span time.Duration) []time.Duration {
	var out []time.Duration
	t := float64(start)
	end := float64(start + span)
	for {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		if t >= end {
			return out
		}
		out = append(out, time.Duration(t))
	}
}

// call is one scheduled request of an open loop.
type call struct {
	due  time.Duration // offset from the loop's start
	item int           // index into the caller's request table
}

// callResult is the outcome of one call: latency from its due time to
// completion, how late the generator dispatched it, and whether it
// succeeded (a failed call misses every latency limit).
type callResult struct {
	latency time.Duration
	lag     time.Duration
	ok      bool
}

// openLoop sends every call at its due time, regardless of how earlier
// calls fare, over at most conns concurrent workers. A call waiting for
// a free worker keeps its original due time, so a stall shows in the
// latency of every call it delays. do performs one call and reports
// success. Results are index-aligned with calls.
func openLoop(start time.Time, calls []call, conns int, do func(call) bool) []callResult {
	results := make([]callResult, len(calls))
	// Buffered for every call: the dispatcher never blocks, so its
	// lateness measures the generator alone, not the system under test.
	queue := make(chan int, len(calls))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				ok := do(calls[i])
				results[i].latency = time.Since(start.Add(calls[i].due))
				results[i].ok = ok
			}
		}()
	}
	for i, c := range calls {
		due := start.Add(c.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		results[i].lag = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return results
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it sorts in place. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// supportsPercentile reports whether n samples leave at least ten
// beyond the p-th percentile — the least a reported tail needs.
func supportsPercentile(n int, p float64) bool {
	return float64(n)*(1-p/100) >= 10
}

// goodput is the number of calls that succeeded within limit per second
// of the span they were scheduled over. A failed call is a miss
// whatever its latency.
func goodput(results []callResult, limit, span time.Duration) float64 {
	n := 0
	for _, r := range results {
		if r.ok && r.latency <= limit {
			n++
		}
	}
	return float64(n) / span.Seconds()
}

// latenciesMs returns the latencies of the successful results in
// milliseconds. Failed calls are left out, so a build that fails fast
// cannot read faster; they count against goodput and make the run
// incorrect instead.
func latenciesMs(results []callResult) []float64 {
	var out []float64
	for _, r := range results {
		if r.ok {
			out = append(out, float64(r.latency)/float64(time.Millisecond))
		}
	}
	return out
}
