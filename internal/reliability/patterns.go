package reliability

import (
	"fmt"
	"math/rand"
)

// ExhaustiveByteErrors injects every nonzero pattern within every aligned
// 8-bit window of the physical bits — the "byte error" class that §7.1
// cites as the most common multi-bit DRAM failure (from neutron-beam
// studies). Trailing bits that do not fill a byte are exercised with all
// patterns of the partial window.
func ExhaustiveByteErrors(t Target) Tally {
	var tally Tally
	for start := 0; start < t.NPhys; start += 8 {
		width := 8
		if start+width > t.NPhys {
			width = t.NPhys - start
		}
		for pattern := uint64(1); pattern < 1<<uint(width); pattern++ {
			var s uint64
			weight := 0
			for b := 0; b < width; b++ {
				if pattern>>uint(b)&1 == 1 {
					s ^= t.cols[start+b]
					weight++
				}
			}
			tally = tally.Add(t.classify(s, weight))
		}
	}
	return tally
}

// ExhaustiveBurstErrors injects every burst of exact span b: all windows
// of b contiguous bits whose first and last bits flip (interior bits
// arbitrary) — §7.1's dominant SRAM multi-bit pattern. b=1 degenerates to
// single-bit errors.
func ExhaustiveBurstErrors(t Target, b int) (Tally, error) {
	if b < 1 || b > 24 {
		return Tally{}, fmt.Errorf("reliability: burst span %d out of range [1,24]", b)
	}
	var tally Tally
	if b == 1 {
		return ExhaustiveKBit(t, 1)
	}
	interior := b - 2
	for start := 0; start+b <= t.NPhys; start++ {
		endpoints := t.cols[start] ^ t.cols[start+b-1]
		for mid := uint64(0); mid < 1<<uint(interior); mid++ {
			s := endpoints
			weight := 2
			for i := 0; i < interior; i++ {
				if mid>>uint(i)&1 == 1 {
					s ^= t.cols[start+1+i]
					weight++
				}
			}
			tally = tally.Add(t.classify(s, weight))
		}
	}
	return tally, nil
}

// SampledKBitBytes injects `trials` double-byte errors: two distinct
// aligned bytes each corrupted with a random nonzero pattern. This is the
// multi-structure pattern the §7.1 comparison uses for both code families.
func SampledKBitBytes(t Target, trials int, seed int64) (Tally, error) {
	if t.NPhys < 16 {
		return Tally{}, fmt.Errorf("reliability: need ≥ 2 bytes of physical bits")
	}
	rng := rand.New(rand.NewSource(seed))
	nBytes := t.NPhys / 8
	var tally Tally
	for trial := 0; trial < trials; trial++ {
		i := rng.Intn(nBytes)
		j := rng.Intn(nBytes)
		for j == i {
			j = rng.Intn(nBytes)
		}
		var s uint64
		weight := 0
		for _, base := range []int{i * 8, j * 8} {
			pattern := uint64(1 + rng.Intn(255))
			for b := 0; b < 8; b++ {
				if pattern>>uint(b)&1 == 1 {
					s ^= t.cols[base+b]
					weight++
				}
			}
		}
		tally = tally.Add(t.classify(s, weight))
	}
	return tally, nil
}
