package main

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestPoissonArrivalsDeterministic(t *testing.T) {
	const rate, span = 400.0, 10 * time.Second
	a := poissonArrivals(rand.New(rand.NewSource(7)), rate, time.Second, span)
	b := poissonArrivals(rand.New(rand.NewSource(7)), rate, time.Second, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	c := poissonArrivals(rand.New(rand.NewSource(8)), rate, time.Second, span)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, d := range a {
		if d < time.Second || d >= time.Second+span {
			t.Fatalf("arrival %d at %v lies outside [1s, 11s)", i, d)
		}
		if i > 0 && d < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, d, i-1, a[i-1])
		}
	}
	// 4000 expected arrivals: the count is within 5 standard deviations.
	want := rate * span.Seconds()
	if got := float64(len(a)); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("%v arrivals at %v/s over %v, want about %v", got, rate, span, want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(append([]float64(nil), xs...), tc.p); got != tc.want {
			t.Errorf("p%v of 1..100 = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{3}, 99); got != 3 {
		t.Errorf("p99 of one sample = %v, want 3", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("p50 of no samples = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v", got)
	}
}

func TestSupportsPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 99, true}, {999, 99, false}, {200, 95, true}, {199, 95, false}, {20, 50, true}} {
		if got := supportsPercentile(tc.n, tc.p); got != tc.want {
			t.Errorf("supportsPercentile(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestGoodputCountsFailureAsMiss(t *testing.T) {
	results := []callResult{
		{latency: 5 * time.Millisecond, ok: true},  // in time
		{latency: 20 * time.Millisecond, ok: true}, // exactly at the limit: in time
		{latency: 25 * time.Millisecond, ok: true}, // late
		{latency: 1 * time.Millisecond, ok: false}, // fast, but failed: a miss
	}
	if got, want := goodput(results, 20*time.Millisecond, 500*time.Millisecond), 2/0.5; got != want {
		t.Fatalf("goodput = %v, want %v", got, want)
	}
}

func TestLatenciesLeaveOutFailures(t *testing.T) {
	got := latenciesMs([]callResult{{latency: 2 * time.Millisecond, ok: true}, {latency: 1 * time.Millisecond}})
	if !reflect.DeepEqual(got, []float64{2}) {
		t.Fatalf("latencies = %v, want [2]", got)
	}
}

// A stalled worker delays every call queued behind it, and latency is
// measured from each call's due time, so the stall shows in all of them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	calls := []call{{due: 0, item: 0}, {due: 0, item: 1}, {due: 0, item: 2}}
	var mu sync.Mutex
	var order []int
	res := openLoop(time.Now(), calls, 1, func(c call) bool {
		time.Sleep(service)
		mu.Lock()
		order = append(order, c.item)
		mu.Unlock()
		return c.item != 1
	})
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("one connection served calls in order %v", order)
	}
	for i, r := range res {
		if min := time.Duration(i+1) * service; r.latency < min {
			t.Errorf("call %d latency %v, want at least %v", i, r.latency, min)
		}
	}
	if res[1].ok || !res[0].ok || !res[2].ok {
		t.Errorf("outcomes %v %v %v, want true false true", res[0].ok, res[1].ok, res[2].ok)
	}
}

func TestShardSkewAndRatio(t *testing.T) {
	if v, note := shardSkew([]uint64{30, 10}); v != 1.5 || note != "cells per shard 30/10" {
		t.Errorf("shardSkew(30, 10) = %v %q", v, note)
	}
	if v, note := ratio(12, 480); v != 0.025 || note != "12/480" {
		t.Errorf("ratio(12, 480) = %v %q", v, note)
	}
	if v, note := ratio(0, 0); v != 0 || note != "0/0" {
		t.Errorf("ratio(0, 0) = %v %q", v, note)
	}
}
