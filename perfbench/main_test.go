package main

import (
	"math/rand"
	"testing"
)

func TestSampleFamiliesCoversEveryFamily(t *testing.T) {
	seen := map[string]int{}
	names := map[string]bool{}
	for _, w := range sampleFamilies(rand.New(rand.NewSource(3)), 2) {
		seen[familyOf(w)]++
		if names[w.Name] {
			t.Errorf("%s drawn twice", w.Name)
		}
		names[w.Name] = true
	}
	for _, f := range familyNames {
		if seen[f] != 2 {
			t.Errorf("family %s drawn %d times, want 2", f, seen[f])
		}
	}
}
