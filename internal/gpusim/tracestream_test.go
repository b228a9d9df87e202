package gpusim

import (
	"bytes"
	"strings"
	"testing"
)

// testTraces builds a small but structurally varied trace set: an idle
// SM, an empty SM, and SMs mixing loads/stores/atomics, tag bits, and
// empty address lists.
func testTraces() []Trace {
	return []Trace{
		nil,
		&SliceTrace{},
		&SliceTrace{Ops: []WarpOp{
			{Addrs: []uint64{0x1000, 0x1020, 0x1000}, Compute: 3},
			{Store: true, Addrs: []uint64{1 << 49, 1<<49 | 32}},
			{Atomic: true, Addrs: []uint64{0}, Compute: 1},
			{Compute: 9},
		}},
		&SliceTrace{Ops: []WarpOp{
			{Store: true, Addrs: []uint64{7, 7, 7}, Compute: 1 << 20},
		}},
	}
}

// encodeTraces writes clones of traces, leaving the inputs replayable.
func encodeTraces(t testing.TB, traces []Trace) []byte {
	t.Helper()
	cloned, err := CloneTraces(traces)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraces(&buf, cloned); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayBlob replays an encoded trace the way the trace store and
// imtsim -replay do: one validating IndexTraceStream pass, then
// OpenTraceAt over the same bytes.
func replayBlob(t testing.TB, blob []byte) []Trace {
	t.Helper()
	idx, err := IndexTraceStream(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return OpenTraceAt(bytes.NewReader(blob), idx)
}

func drain(tr Trace) []WarpOp {
	if tr == nil {
		return nil
	}
	var ops []WarpOp
	for {
		op, ok := tr.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}

// TestWriteTracesCloneDoesNotConsume is the regression test for the
// silent-consumption trap: WriteTraces drains its inputs, so writing
// CloneTraces copies must leave the originals replayable and still
// produce byte-identical output.
func TestWriteTracesCloneDoesNotConsume(t *testing.T) {
	traces := testTraces()
	cloneBytes := encodeTraces(t, traces)
	// The originals must still yield their full op streams.
	if ops := drain(traces[2]); len(ops) != 4 {
		t.Fatalf("writing clones consumed the input: %d ops left, want 4", len(ops))
	}
	if ops := drain(traces[3]); len(ops) != 1 {
		t.Fatalf("writing clones consumed the input: %d ops left, want 1", len(ops))
	}
	// And the bytes match what a draining WriteTraces produces.
	var drainBuf bytes.Buffer
	if err := WriteTraces(&drainBuf, testTraces()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cloneBytes, drainBuf.Bytes()) {
		t.Fatal("bytes written from clones differ from WriteTraces bytes")
	}
	// After the draining write, the inputs are exhausted — the
	// documented contract.
	consumed := testTraces()
	var sink bytes.Buffer
	if err := WriteTraces(&sink, consumed); err != nil {
		t.Fatal(err)
	}
	if ops := drain(consumed[2]); len(ops) != 0 {
		t.Fatalf("WriteTraces left %d ops unconsumed, want 0", len(ops))
	}
	// FuncTrace inputs are not cloneable and must be rejected.
	if _, err := CloneTraces([]Trace{&FuncTrace{N: 1, Gen: func(int, []uint64) WarpOp { return WarpOp{} }}}); err == nil {
		t.Fatal("CloneTraces accepted a non-cloneable FuncTrace")
	}
}

// TestIndexTraceStreamMatchesReadTraces checks the streaming validator
// and replay agree with the reference decoder: same acceptance, same
// per-SM op streams via OpenTraceAt.
func TestIndexTraceStreamMatchesReadTraces(t *testing.T) {
	blob := encodeTraces(t, testTraces())
	idx, err := IndexTraceStream(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumSMs != 4 || idx.TotalOps != 5 || idx.Bytes != int64(len(blob)) {
		t.Fatalf("index = %+v, want 4 SMs / 5 ops / %d bytes", idx, len(blob))
	}
	want, err := refDecodeTraces(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := OpenTraceAt(bytes.NewReader(blob), idx)
	if len(got) != len(want) {
		t.Fatalf("OpenTraceAt returned %d SMs, want %d", len(got), len(want))
	}
	for sm := range want {
		if !opsEqual(want[sm], drain(got[sm])) {
			t.Fatalf("SM %d: streamed replay diverges from the reference decoder", sm)
		}
	}
}

// TestStreamTraceCloneAndBatch checks the store-replay trace honors the
// Clone contract (independent, rewound) and that NextBatch yields
// exactly the sequence Next would.
func TestStreamTraceCloneAndBatch(t *testing.T) {
	blob := encodeTraces(t, testTraces())
	idx, err := IndexTraceStream(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	traces := OpenTraceAt(bytes.NewReader(blob), idx)
	tr := traces[2]
	// Partially consume, then clone: the clone must start from op 0.
	if _, ok := tr.Next(); !ok {
		t.Fatal("empty stream")
	}
	cloned, err := CloneTraces([]Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	clone := cloned[0]
	var batched []WarpOp
	bt := clone.(interface{ NextBatch([]WarpOp) int })
	buf := make([]WarpOp, 3)
	for {
		n := bt.NextBatch(buf)
		if n == 0 {
			break
		}
		for _, op := range buf[:n] {
			op.Addrs = append([]uint64(nil), op.Addrs...)
			batched = append(batched, op)
		}
	}
	fresh := OpenTraceAt(bytes.NewReader(blob), idx)
	if !opsEqual(batched, drain(fresh[2])) {
		t.Fatal("clone NextBatch sequence diverges from a fresh trace's Next sequence")
	}
	st, ok := clone.(*blobTrace)
	if !ok {
		t.Fatalf("clone is %T, want *blobTrace", clone)
	}
	if st.Err() != nil {
		t.Fatalf("replay error: %v", st.Err())
	}
}

// TestTraceEncoderMatchesWriteTraces: the incremental encoder must be
// byte-compatible with the one-shot writer.
func TestTraceEncoderMatchesWriteTraces(t *testing.T) {
	traces := testTraces()
	want := encodeTraces(t, traces)
	var got bytes.Buffer
	enc, err := NewTraceEncoder(&got, len(traces))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		ops := drain(tr)
		if err := enc.BeginSM(uint64(len(ops))); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if err := enc.WriteOp(op); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("TraceEncoder bytes differ from WriteTraces bytes")
	}
}

// TestTraceEncoderValidatesStructure: the encoder refuses to produce a
// blob whose structure disagrees with its declarations.
func TestTraceEncoderValidatesStructure(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewTraceEncoder(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteOp(WarpOp{}); err == nil {
		t.Fatal("WriteOp before BeginSM accepted")
	}
	enc, _ = NewTraceEncoder(&buf, 1)
	if err := enc.BeginSM(2); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err == nil {
		t.Fatal("Close with ops owed accepted")
	}
	enc, _ = NewTraceEncoder(&buf, 1)
	if err := enc.BeginSM(1); err != nil {
		t.Fatal(err)
	}
	if err := enc.BeginSM(1); err == nil {
		t.Fatal("BeginSM with ops owed accepted")
	}
	enc, _ = NewTraceEncoder(&buf, 0)
	if err := enc.BeginSM(0); err == nil {
		t.Fatal("BeginSM past declared SM count accepted")
	}
	if err := enc.Close(); err == nil {
		t.Fatal("errors must stick: Close after a failed BeginSM accepted")
	}
	enc, _ = NewTraceEncoder(&buf, 0)
	if err := enc.Close(); err != nil {
		t.Fatalf("closing an empty 0-SM stream: %v", err)
	}
	// WriteTraces encodes through the same checks: an op no reader
	// would accept fails the write itself.
	wide := &SliceTrace{Ops: []WarpOp{{Addrs: make([]uint64, maxTraceAddrs+1)}}}
	if err := WriteTraces(&buf, []Trace{wide}); err == nil {
		t.Fatalf("WriteTraces accepted an op with %d addresses", maxTraceAddrs+1)
	}
}

// TestIndexTraceStreamRejects: the validator must reject malformed,
// truncated, and padded streams that a later replay could misread.
func TestIndexTraceStreamRejects(t *testing.T) {
	blob := encodeTraces(t, testTraces())
	cases := map[string][]byte{
		"bad magic":       []byte("NOTATRACE"),
		"empty":           {},
		"truncated magic": []byte("IMTTRC"),
		"truncated SMs":   blob[:len(blob)-3],
		"trailing data":   append(append([]byte{}, blob...), 0),
		"implausible SMs": []byte(traceMagic + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"),
	}
	for name, b := range cases {
		if _, err := IndexTraceStream(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Non-canonical varints are accepted (the format never promised
	// canonical encodings) but re-encoding canonicalizes them.
	nc := []byte(traceMagic + "\x81\x00\x00") // SM count 1 in two bytes, 0 ops
	idx, err := IndexTraceStream(bytes.NewReader(nc))
	if err != nil {
		t.Fatalf("non-canonical varint rejected: %v", err)
	}
	if idx.NumSMs != 1 || idx.TotalOps != 0 {
		t.Fatalf("non-canonical decode: %+v", idx)
	}
}

// FuzzTraceChunkDecode drives the chunked streaming decoder with
// arbitrary bytes: it must never panic, never allocate beyond one op
// chunk whatever the headers claim, and any accepted input must decode
// → encode → decode to a fixed point (same index, same op streams,
// byte-stable re-encoding).
func FuzzTraceChunkDecode(f *testing.F) {
	f.Add(encodeTraces(f, nil))
	f.Add(encodeTraces(f, testTraces()))
	f.Add([]byte("IMTTRC1\n\x01\x01\x00\x02\x01\x80\x20"))
	f.Add([]byte("IMTTRC1\n\x02\x03"))                 // truncated
	f.Add([]byte("IMTTRC1\n\x00XX"))                   // trailing data
	f.Add([]byte(strings.Repeat("IMTTRC1\n", 2)))      // magic as payload
	f.Add([]byte("IMTTRC1\n\x01\x81\x00\x00\x00\x00")) // non-canonical op count

	reencode := func(t *testing.T, b []byte) ([]byte, TraceIndex, bool) {
		sc, err := NewTraceScanner(bytes.NewReader(b))
		if err != nil {
			return nil, TraceIndex{}, false
		}
		var out bytes.Buffer
		enc, err := NewTraceEncoder(&out, sc.NumSMs())
		if err != nil {
			t.Fatalf("encoder rejected scanner's SM count: %v", err)
		}
		var chunk [64]WarpOp
		for {
			ops, ok, err := sc.NextSM()
			if err != nil {
				return nil, TraceIndex{}, false
			}
			if !ok {
				break
			}
			if err := enc.BeginSM(ops); err != nil {
				t.Fatalf("encoder rejected scanned op count %d: %v", ops, err)
			}
			for {
				n, err := sc.ReadOps(chunk[:])
				if err != nil {
					return nil, TraceIndex{}, false
				}
				if n == 0 {
					break
				}
				for _, op := range chunk[:n] {
					if err := enc.WriteOp(op); err != nil {
						t.Fatalf("encoder rejected scanned op: %v", err)
					}
				}
			}
		}
		idx, err := sc.Finish()
		if err != nil {
			return nil, TraceIndex{}, false
		}
		if err := enc.Close(); err != nil {
			t.Fatalf("encoder close after full scan: %v", err)
		}
		return out.Bytes(), idx, true
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		idx, err := IndexTraceStream(bytes.NewReader(b))
		if err != nil {
			// Rejected input: the scanner must agree (no panic is the
			// only other contract).
			if _, _, ok := reencode(t, b); ok {
				t.Fatal("scanner accepted what IndexTraceStream rejected")
			}
			return
		}
		enc1, idx1, ok := reencode(t, b)
		if !ok {
			t.Fatal("scanner rejected what IndexTraceStream accepted")
		}
		if idx1.NumSMs != idx.NumSMs || idx1.TotalOps != idx.TotalOps || idx1.Bytes != idx.Bytes {
			t.Fatalf("scanner index %+v != IndexTraceStream index %+v", idx1, idx)
		}
		// The reference decoder accepts the same streams; on accepted
		// input the op streams must agree exactly.
		want, err := refDecodeTraces(b)
		if err != nil {
			t.Fatalf("reference decoder rejected validated stream: %v", err)
		}
		got, err := refDecodeTraces(enc1)
		if err != nil {
			t.Fatalf("reference decoder rejected re-encoded stream: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("re-encode changed SM count %d → %d", len(want), len(got))
		}
		for sm := range want {
			if !opsEqual(want[sm], got[sm]) {
				t.Fatalf("SM %d ops changed across chunked re-encode", sm)
			}
		}
		// Fixed point: a second decode→encode pass is byte-identical
		// (the encoder emits canonical varints).
		enc2, _, ok := reencode(t, enc1)
		if !ok {
			t.Fatal("scanner rejected its own encoder's output")
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatal("decode→encode→decode is not a fixed point")
		}
		// And the replay path sees the same ops off the re-encoding.
		idx2, err := IndexTraceStream(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("re-indexing re-encoded stream: %v", err)
		}
		for sm, tr := range OpenTraceAt(bytes.NewReader(enc1), idx2) {
			if !opsEqual(want[sm], drain(tr)) {
				t.Fatalf("SM %d: store replay diverges from the reference decoder", sm)
			}
		}
	})
}
