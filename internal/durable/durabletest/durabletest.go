// Package durabletest enumerates the crash points of code that writes
// through durable.FS, in the style of ALICE (Pillai et al., OSDI 2014).
package durabletest

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
)

// errCrash fails the crashed operation and every later one.
var errCrash = errors.New("durabletest: crashed")

// Enumerate calls run with crash point k = 0, 1, …: run's FS fails op k
// and every later op with an error, as if the process had stopped just
// before op k, and check(k, err) follows with run's error so the caller
// can reopen its store and assert its invariants. The first run that
// never reaches op k did not crash: it must succeed, every rename in it
// must directly follow an fsync of the file (directory creation aside)
// and precede an fsync of the destination's directory, and every remove
// of a file other than a temp file must precede an fsync of its
// directory. Its ops, "<op> <path>" each, are returned.
func Enumerate(t testing.TB, run func(durable.FS) error, check func(k int, err error)) []string {
	t.Helper()
	for k := 0; ; k++ {
		var ops []string
		crashed := false
		err := run(durable.FS{Hook: func(op, path string) error {
			if crashed = len(ops) == k; crashed {
				return errCrash
			}
			ops = append(ops, op+" "+path)
			return nil
		}})
		check(k, err)
		if crashed {
			continue
		}
		if err != nil {
			t.Fatalf("uncrashed run: %v", err)
		}
		for i, op := range ops {
			if path, ok := strings.CutPrefix(op, "remove "); ok && !strings.HasPrefix(filepath.Base(path), ".tmp-") {
				if i+1 == len(ops) || ops[i+1] != "fsync-dir "+filepath.Dir(path) {
					t.Errorf("op %d (%s) is not remove → fsync(dir): %q", i, op, ops)
				}
			}
			dst, ok := strings.CutPrefix(op, "rename ")
			if !ok {
				continue
			}
			j := i - 1
			for j >= 0 && (strings.HasPrefix(ops[j], "mkdir ") || strings.HasPrefix(ops[j], "fsync-dir ")) {
				j--
			}
			if j < 0 || !strings.HasPrefix(ops[j], "fsync ") || i+1 == len(ops) || ops[i+1] != "fsync-dir "+filepath.Dir(dst) {
				t.Errorf("op %d (%s) is not fsync(file) → rename → fsync(dir): %q", i, op, ops)
			}
		}
		return ops
	}
}
