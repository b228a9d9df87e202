package gpusim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// refDecodeTraces is the reference IMTTRC decoder the production codec
// is tested against. It is written independently of the scanner — it
// materializes the whole buffer and decodes varints by slice index
// rather than through a byte reader — but applies the same caps and the
// same end-of-stream rule, so it accepts exactly the streams
// IndexTraceStream accepts and yields each SM's ops.
func refDecodeTraces(b []byte) ([][]WarpOp, error) {
	if !bytes.HasPrefix(b, []byte(traceMagic)) {
		return nil, errors.New("not a trace file")
	}
	b = b[len(traceMagic):]
	uvarint := func(what string, limit uint64) (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("%s: truncated or overlong varint", what)
		}
		if v > limit {
			return 0, fmt.Errorf("implausible %s %d", what, v)
		}
		b = b[n:]
		return v, nil
	}
	numSMs, err := uvarint("SM count", maxTraceSMs)
	if err != nil {
		return nil, err
	}
	out := make([][]WarpOp, 0, min(numSMs, 4096))
	for sm := uint64(0); sm < numSMs; sm++ {
		numOps, err := uvarint("op count", maxTraceOps)
		if err != nil {
			return nil, err
		}
		var ops []WarpOp
		for i := uint64(0); i < numOps; i++ {
			if len(b) == 0 {
				return nil, errors.New("op flags: truncated")
			}
			op := WarpOp{Store: b[0]&1 != 0, Atomic: b[0]&2 != 0}
			b = b[1:]
			compute, err := uvarint("compute", ^uint64(0))
			if err != nil {
				return nil, err
			}
			op.Compute = int(compute)
			nAddrs, err := uvarint("address count", maxTraceAddrs)
			if err != nil {
				return nil, err
			}
			for j := uint64(0); j < nAddrs; j++ {
				a, err := uvarint("address", ^uint64(0))
				if err != nil {
					return nil, err
				}
				op.Addrs = append(op.Addrs, a)
			}
			ops = append(ops, op)
		}
		out = append(out, ops)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(b))
	}
	return out, nil
}

// opsEqual compares op streams structurally, treating nil and empty
// address slices as the same (decoders normalize them differently; the
// format cannot distinguish them).
func opsEqual(a, b []WarpOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Store != b[i].Store || a[i].Atomic != b[i].Atomic || a[i].Compute != b[i].Compute {
			return false
		}
		if len(a[i].Addrs) != len(b[i].Addrs) {
			return false
		}
		for j := range a[i].Addrs {
			if a[i].Addrs[j] != b[i].Addrs[j] {
				return false
			}
		}
	}
	return true
}

// FuzzParseTraceFile holds the production read path — IndexTraceStream
// then OpenTraceAt, as the trace store and imtsim -replay use it — to
// the reference decoder on arbitrary bytes: never a panic or an
// unbounded allocation from a hostile header, the same verdict on
// every input, the same ops on every accepted one, and a WriteTraces
// re-encoding of the replay that decodes to those ops again.
func FuzzParseTraceFile(f *testing.F) {
	seed := func(traces []Trace) []byte {
		var buf bytes.Buffer
		if err := WriteTraces(&buf, traces); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(nil))
	f.Add(seed([]Trace{nil, &SliceTrace{}}))
	f.Add(seed([]Trace{&SliceTrace{Ops: []WarpOp{
		{Addrs: []uint64{0x1000, 0x1020}, Compute: 3},
		{Store: true, Addrs: []uint64{1 << 49}},
		{Atomic: true, Addrs: []uint64{0}, Compute: 1},
	}}}))
	f.Add([]byte{})
	f.Add([]byte("IMTTRC1\n"))
	f.Add([]byte("IMTTRC1\n\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")) // implausible SM count
	f.Add([]byte("not a trace file"))
	f.Add([]byte("IMTTRC1\n\x00X")) // trailing data

	f.Fuzz(func(t *testing.T, b []byte) {
		want, refErr := refDecodeTraces(b)
		idx, err := IndexTraceStream(bytes.NewReader(b))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("verdicts differ: IndexTraceStream %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		traces := OpenTraceAt(bytes.NewReader(b), idx)
		if len(traces) != len(want) {
			t.Fatalf("OpenTraceAt returned %d SMs, reference %d", len(traces), len(want))
		}
		for sm, tr := range traces {
			if !opsEqual(want[sm], drain(tr)) {
				t.Fatalf("SM %d: replay diverges from the reference decoder", sm)
			}
			if err := tr.(*blobTrace).Err(); err != nil {
				t.Fatalf("SM %d: replay of a validated stream failed: %v", sm, err)
			}
		}
		var out bytes.Buffer
		if err := WriteTraces(&out, OpenTraceAt(bytes.NewReader(b), idx)); err != nil {
			t.Fatalf("re-encoding replayed traces: %v", err)
		}
		again, err := refDecodeTraces(out.Bytes())
		if err != nil {
			t.Fatalf("re-decoding re-encoded traces: %v", err)
		}
		if len(again) != len(want) {
			t.Fatalf("round trip changed SM count: %d → %d", len(want), len(again))
		}
		for sm := range want {
			if !opsEqual(want[sm], again[sm]) {
				t.Fatalf("SM %d ops changed across round trip", sm)
			}
		}
	})
}
