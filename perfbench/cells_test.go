package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/serve/apitypes"
)

func TestCellTimesAndFleetRate(t *testing.T) {
	start := time.Now()
	at := func(shard string, ms int) arrival {
		return arrival{cell: apitypes.CellResult{Shard: shard}, at: start.Add(time.Duration(ms) * time.Millisecond)}
	}
	// Shard a serves cells finishing at 100 ms and 300 ms, shard b one
	// finishing at 250 ms; each cell starts when its shard's previous
	// cell ended.
	arrivals := []arrival{at("a", 100), at("b", 250), at("a", 300)}
	if got, want := cellTimesMs(arrivals, start), []float64{100, 250, 200}; !reflect.DeepEqual(got, want) {
		t.Errorf("cell times %v, want %v", got, want)
	}
	// 3 cells in 0.3 s + 0.25 s of shard time, on 2 shards.
	if got, want := fleetRate(arrivals, start), 3*2/0.55; math.Abs(got-want) > 1e-9 {
		t.Errorf("fleet rate %v, want %v", got, want)
	}
}

// A failed cell is dropped before rates and service times are taken:
// its shard's time still passes, so the next cell carries it.
func TestSucceededChargesFailedCellToTheNext(t *testing.T) {
	start := time.Now()
	st := &gpusim.Stats{}
	arrivals := succeeded([]arrival{
		{cell: apitypes.CellResult{Shard: "a", Stats: st}, at: start.Add(100 * time.Millisecond)},
		{cell: apitypes.CellResult{Shard: "a", Error: "boom"}, at: start.Add(110 * time.Millisecond)},
		{cell: apitypes.CellResult{Shard: "a", Stats: st}, at: start.Add(300 * time.Millisecond)},
	})
	if got, want := cellTimesMs(arrivals, start), []float64{100, 200}; !reflect.DeepEqual(got, want) {
		t.Errorf("cell times %v, want %v", got, want)
	}
	if got, want := fleetRate(arrivals, start), 2/0.3; math.Abs(got-want) > 1e-9 { // one shard
		t.Errorf("fleet rate %v, want %v", got, want)
	}
}

func TestQuieterHalf(t *testing.T) {
	steal := []float64{0.10, 0.5, 0.02, 0.5, 0.30, 0.5, 0.02, 0.5}
	if got, want := quieterHalf([]int{0, 2, 4, 6}, steal), []int{2, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("quieter half %v, want %v", got, want)
	}
	steal[4] = math.NaN()
	if got, want := quieterHalf([]int{0, 2, 4, 6}, steal), []int{0, 2, 4, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("without a steal sample: %v, want every window %v", got, want)
	}
}
