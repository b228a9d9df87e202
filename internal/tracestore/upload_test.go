package tracestore_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/apitypes"
	"repro/internal/tracestore"
)

// TestUploadStorageFailure fails an upload's temp-file writes, and a
// delete's blob removal, with each disk error the API maps to 507
// storage_error. The client must get that code, not the 400 of a
// malformed trace; the store must be unchanged and count no rejection;
// and the same upload and delete must succeed once the disk works
// again.
func TestUploadStorageFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := tracestore.Open(tracestore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	resident, _, err := s.Put(bytes.NewReader(traceBlob(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	list, stats := s.List(), s.Stats()
	front := serve.NewFrontend(serve.FrontendOptions{}, nil, serve.FrontendMetrics{}, obs.Manifest{})
	upload := traceBlob(t, 2)
	steps := []struct {
		name, op string
		call     func() error
	}{
		{"upload", "write", func() error { _, _, err := s.Put(bytes.NewReader(upload)); return err }},
		{"delete", "remove", func() error { _, err := s.Delete(resident.Digest); return err }},
	}
	for _, errno := range []syscall.Errno{syscall.ENOSPC, syscall.EDQUOT, syscall.EIO} {
		for _, step := range steps {
			tracestore.SetHook(s, func(op, _ string) error {
				if op == step.op {
					return errno
				}
				return nil
			})
			err := step.call()
			// What POST or DELETE /v1/traces answers for the failure.
			rec := httptest.NewRecorder()
			front.WriteFailure(rec, err)
			var body apitypes.ErrorResponse
			if jerr := json.Unmarshal(rec.Body.Bytes(), &body); jerr != nil || rec.Code != http.StatusInsufficientStorage || body.Error.Code != apitypes.CodeStorage {
				t.Fatalf("%v: %s answered %d %s, want 507 %s", errno, step.name, rec.Code, rec.Body, apitypes.CodeStorage)
			}
			if !reflect.DeepEqual(s.List(), list) || s.Stats() != stats {
				t.Fatalf("%v: store changed by a failed %s: %+v", errno, step.name, s.Stats())
			}
			if tmps, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(tmps) != 0 {
				t.Fatalf("%v: failed %s left %d temp files", errno, step.name, len(tmps))
			}
		}
	}
	tracestore.SetHook(s, nil)
	if _, created, err := s.Put(bytes.NewReader(upload)); err != nil || !created {
		t.Fatalf("upload once the disk works: created=%v err=%v", created, err)
	}
	if _, err := s.Delete(resident.Digest); err != nil {
		t.Fatalf("delete once the disk works: %v", err)
	}
	if _, err := s.Stat(resident.Digest); !errors.Is(err, tracestore.ErrNotFound) {
		t.Fatalf("deleted trace still resident: %v", err)
	}
}

func traceBlob(t *testing.T, seed uint64) []byte {
	t.Helper()
	ops := []gpusim.WarpOp{{Addrs: []uint64{seed * 4096}}, {Store: true, Addrs: []uint64{seed*4096 + 32}}}
	var buf bytes.Buffer
	if err := gpusim.WriteTraces(&buf, []gpusim.Trace{&gpusim.SliceTrace{Ops: ops}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
