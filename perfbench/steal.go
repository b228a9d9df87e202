package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on virtual machines whose host may give CPU time
// to other guests while this one wants it ("steal"). A stolen vCPU
// stalls whatever runs on it for a scheduling slice, so workloads that
// are sensitive to it sample the steal share in fixed windows and
// report figures from their quieter half of windows.

// hostCPU reads the steal and total jiffies of all CPUs from /proc/stat.
func hostCPU() (steal, total uint64, err error) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// stealMeter reads the host's steal share over successive intervals.
type stealMeter struct {
	steal, total uint64
	err          error
}

// newStealMeter starts the first interval now.
func newStealMeter() *stealMeter {
	m := &stealMeter{}
	m.steal, m.total, m.err = hostCPU()
	return m
}

// next ends the current interval, returns its steal share (NaN when
// /proc/stat could not be read), and starts the next one.
func (m *stealMeter) next() float64 {
	steal, total, err := hostCPU()
	share := math.NaN()
	if m.err == nil && err == nil && total > m.total {
		share = float64(steal-m.steal) / float64(total-m.total)
	}
	m.steal, m.total, m.err = steal, total, err
	return share
}

// stealPerWindow samples the host's steal share over n consecutive
// windows of length win starting at start. It returns once the last
// window has ended; a window whose sample failed reads NaN.
func stealPerWindow(start time.Time, win time.Duration, n int) []float64 {
	out := make([]float64, n)
	m := newStealMeter()
	for k := range out {
		time.Sleep(time.Until(start.Add(time.Duration(k+1) * win)))
		out[k] = m.next()
	}
	return out
}

// quieterHalf returns the windows of idx whose steal share is at most
// the median share among them, in window order. Without steal samples
// (no /proc/stat) it returns idx unchanged.
func quieterHalf(idx []int, steal []float64) []int {
	shares := make([]float64, 0, len(idx))
	for _, k := range idx {
		if math.IsNaN(steal[k]) {
			return idx
		}
		shares = append(shares, steal[k])
	}
	sort.Float64s(shares)
	limit := shares[(len(shares)-1)/2]
	var out []int
	for _, k := range idx {
		if steal[k] <= limit {
			out = append(out, k)
		}
	}
	return out
}
