package gpusim

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Trace files let a workload's warp-op stream be recorded once and
// replayed deterministically — the "trace-driven" half of a trace-driven
// simulator. This file is the format's only codec. The format is a
// compact varint stream:
//
//	magic "IMTTRC1\n"
//	numSMs  uvarint
//	per SM: numOps uvarint, then per op:
//	  flags   byte (bit0 store, bit1 atomic)
//	  compute uvarint
//	  nAddrs  uvarint
//	  addrs   uvarint each (raw; generators emit small, local values)
//
// The scanner validates multi-GB traces through bounded buffers — a
// chunk of ops at a time — and OpenTraceAt replays a validated trace
// straight off an io.ReaderAt (an on-disk blob or recorded file)
// without ever loading it. TraceEncoder, and WriteTraces over it,
// write the format under the same hostile-input caps the scanner
// enforces, so anything written can be read back.
const traceMagic = "IMTTRC1\n"

const (
	maxTraceSMs   = 1 << 16
	maxTraceOps   = 1 << 28
	maxTraceAddrs = 1024
)

// TraceSMIndex locates one SM's op region inside a trace blob.
type TraceSMIndex struct {
	// Ops is the SM's declared (and verified) op count.
	Ops uint64 `json:"ops"`
	// Offset is the byte offset of the first op, past the op-count
	// uvarint; Bytes is the op region's encoded length.
	Offset int64 `json:"offset"`
	Bytes  int64 `json:"bytes"`
}

// TraceIndex is the byte-level map of a fully validated IMTTRC stream:
// enough to replay any SM's ops via a section reader without another
// validation pass. It is what a trace store persists alongside a blob.
type TraceIndex struct {
	NumSMs   int            `json:"num_sms"`
	TotalOps uint64         `json:"total_ops"`
	Bytes    int64          `json:"bytes"`
	SMs      []TraceSMIndex `json:"sms"`
}

// countingByteReader counts every byte consumed, giving the scanner
// exact offsets even for non-canonical varint encodings (whose width
// cannot be recomputed from the decoded value).
type countingByteReader struct {
	br *bufio.Reader
	n  int64
}

func (c *countingByteReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *countingByteReader) readFull(p []byte) error {
	n, err := io.ReadFull(c.br, p)
	c.n += int64(n)
	return err
}

// noEOF converts a bare EOF into ErrUnexpectedEOF: inside a record, a
// clean end of input still means the record was truncated.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readTraceOp decodes one op from br into the given addrs backing slice
// (reused when its capacity suffices, grown otherwise — allocation per
// op is capped by maxTraceAddrs regardless of what the header claims).
func readTraceOp(br io.ByteReader, addrs []uint64) (WarpOp, error) {
	flags, err := br.ReadByte()
	if err != nil {
		return WarpOp{}, fmt.Errorf("gpusim: op flags: %w", noEOF(err))
	}
	compute, err := binary.ReadUvarint(br)
	if err != nil {
		return WarpOp{}, fmt.Errorf("gpusim: op compute: %w", noEOF(err))
	}
	nAddrs, err := binary.ReadUvarint(br)
	if err != nil {
		return WarpOp{}, fmt.Errorf("gpusim: op address count: %w", noEOF(err))
	}
	if nAddrs > maxTraceAddrs {
		return WarpOp{}, fmt.Errorf("gpusim: implausible address count %d", nAddrs)
	}
	if uint64(cap(addrs)) < nAddrs {
		addrs = make([]uint64, 0, nAddrs)
	} else {
		addrs = addrs[:0]
	}
	for j := uint64(0); j < nAddrs; j++ {
		a, err := binary.ReadUvarint(br)
		if err != nil {
			return WarpOp{}, fmt.Errorf("gpusim: op address: %w", noEOF(err))
		}
		addrs = append(addrs, a)
	}
	return WarpOp{
		Store:   flags&1 != 0,
		Atomic:  flags&2 != 0,
		Compute: int(compute),
		Addrs:   addrs,
	}, nil
}

// TraceScanner is a chunked, bounded-memory decoder for the IMTTRC
// format: NextSM/ReadOps walk the stream one SM and one op chunk at a
// time, building a TraceIndex as a side effect. It never allocates more
// than one chunk of ops, whatever op counts the headers claim.
type TraceScanner struct {
	cr   countingByteReader
	sm   int    // current SM index; -1 before the first NextSM
	left uint64 // ops remaining in the current SM
	idx  TraceIndex
}

// NewTraceScanner reads and validates the stream header.
func NewTraceScanner(r io.Reader) (*TraceScanner, error) {
	s := &TraceScanner{cr: countingByteReader{br: bufio.NewReaderSize(r, 64<<10)}, sm: -1}
	magic := make([]byte, len(traceMagic))
	if err := s.cr.readFull(magic); err != nil {
		return nil, fmt.Errorf("gpusim: reading trace magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("gpusim: not a trace file (magic %q)", magic)
	}
	numSMs, err := binary.ReadUvarint(&s.cr)
	if err != nil {
		return nil, fmt.Errorf("gpusim: SM count: %w", noEOF(err))
	}
	if numSMs > maxTraceSMs {
		return nil, fmt.Errorf("gpusim: implausible SM count %d", numSMs)
	}
	s.idx.NumSMs = int(numSMs)
	s.idx.SMs = make([]TraceSMIndex, 0, min(numSMs, 4096))
	return s, nil
}

// NumSMs returns the stream's declared SM count.
func (s *TraceScanner) NumSMs() int { return s.idx.NumSMs }

// NextSM advances to the next SM and returns its declared op count;
// ok=false once every SM has been scanned. The previous SM must have
// been fully drained with ReadOps first.
func (s *TraceScanner) NextSM() (ops uint64, ok bool, err error) {
	if s.left > 0 {
		return 0, false, fmt.Errorf("gpusim: SM %d has %d undecoded ops", s.sm, s.left)
	}
	if s.sm+1 >= s.idx.NumSMs {
		return 0, false, nil
	}
	s.sm++
	numOps, err := binary.ReadUvarint(&s.cr)
	if err != nil {
		return 0, false, fmt.Errorf("gpusim: SM %d op count: %w", s.sm, noEOF(err))
	}
	if numOps > maxTraceOps {
		return 0, false, fmt.Errorf("gpusim: implausible op count %d", numOps)
	}
	s.left = numOps
	s.idx.SMs = append(s.idx.SMs, TraceSMIndex{Ops: numOps, Offset: s.cr.n})
	s.idx.TotalOps += numOps
	return numOps, true, nil
}

// ReadOps decodes up to len(dst) ops of the current SM into dst,
// returning how many were delivered (0 when the SM is drained). Each
// dst element's Addrs capacity is reused, so decoded ops are only valid
// until the next ReadOps call with the same dst.
func (s *TraceScanner) ReadOps(dst []WarpOp) (int, error) {
	n := 0
	for n < len(dst) && s.left > 0 {
		op, err := readTraceOp(&s.cr, dst[n].Addrs)
		if err != nil {
			return n, fmt.Errorf("gpusim: SM %d: %w", s.sm, err)
		}
		dst[n] = op
		n++
		s.left--
	}
	if s.left == 0 && s.sm >= 0 && s.sm < len(s.idx.SMs) {
		smIdx := &s.idx.SMs[s.sm]
		smIdx.Bytes = s.cr.n - smIdx.Offset
	}
	return n, nil
}

// Finish verifies every SM was drained and the stream ends cleanly (no
// trailing bytes), then returns the completed index.
func (s *TraceScanner) Finish() (TraceIndex, error) {
	if s.sm+1 < s.idx.NumSMs || s.left > 0 {
		return TraceIndex{}, fmt.Errorf("gpusim: trace stream not fully scanned (SM %d of %d)", s.sm+1, s.idx.NumSMs)
	}
	if _, err := s.cr.ReadByte(); err == nil {
		return TraceIndex{}, fmt.Errorf("gpusim: trailing data after trace stream (offset %d)", s.cr.n-1)
	} else if err != io.EOF {
		return TraceIndex{}, err
	}
	s.idx.Bytes = s.cr.n
	return s.idx, nil
}

// IndexTraceStream validates an entire IMTTRC stream in one bounded-
// memory pass — every op is decoded and checked, none is kept — and
// returns the byte-level index that lets OpenTraceAt replay the same
// bytes later. This is the upload-side gate: a stream it accepts can
// always be replayed.
func IndexTraceStream(r io.Reader) (TraceIndex, error) {
	sc, err := NewTraceScanner(r)
	if err != nil {
		return TraceIndex{}, err
	}
	var chunk [512]WarpOp
	for {
		_, ok, err := sc.NextSM()
		if err != nil {
			return TraceIndex{}, err
		}
		if !ok {
			break
		}
		for {
			n, err := sc.ReadOps(chunk[:])
			if err != nil {
				return TraceIndex{}, err
			}
			if n == 0 {
				break
			}
		}
	}
	return sc.Finish()
}

// blobTrace replays one SM's ops straight off an io.ReaderAt through
// a section reader — no materialization, so a multi-GB blob costs one
// decode buffer per SM. Decoding is lazy (first Next/NextBatch call);
// Clone returns an independent rewound stream over the same blob.
type blobTrace struct {
	ra     io.ReaderAt
	off    int64
	length int64
	ops    uint64

	br    *bufio.Reader
	left  uint64
	err   error
	arena addrArena
}

// next decodes the following op, appending its addresses onto addrs
// (reallocated when they do not fit).
func (t *blobTrace) next(addrs []uint64) (WarpOp, bool) {
	if t.br == nil {
		t.br = bufio.NewReaderSize(io.NewSectionReader(t.ra, t.off, t.length), 32<<10)
		t.left = t.ops
	}
	if t.left == 0 || t.err != nil {
		return WarpOp{}, false
	}
	op, err := readTraceOp(t.br, addrs)
	if err != nil {
		t.err = err
		return WarpOp{}, false
	}
	t.left--
	return op, true
}

// Next implements Trace. The op's Addrs are freshly allocated, the
// caller's to keep.
func (t *blobTrace) Next() (WarpOp, bool) { return t.next(nil) }

// NextBatch implements the simulator's batched fast path, decoding the
// addresses into the trace's arena (see batchTrace): the ops stay valid
// until the next NextBatch call.
func (t *blobTrace) NextBatch(dst []WarpOp) int {
	t.arena.reset(len(dst))
	n := 0
	for n < len(dst) {
		op, ok := t.next(t.arena.free())
		if !ok {
			break
		}
		t.arena.keep(op.Addrs)
		dst[n] = op
		n++
	}
	return n
}

// Clone implements the CloneTraces contract: an independent, rewound
// stream sharing only the immutable underlying blob.
func (t *blobTrace) Clone() Trace {
	return &blobTrace{ra: t.ra, off: t.off, length: t.length, ops: t.ops}
}

// Err reports a decode error hit during replay. A blob validated by
// IndexTraceStream never produces one; this surfaces only disk-level
// corruption after validation, in which case the stream ends early.
func (t *blobTrace) Err() error { return t.err }

// OpenTraceAt exposes an indexed blob as per-SM replayable traces. The
// ReaderAt must serve concurrent ReadAt calls (an *os.File does); every
// returned trace and its clones share it.
func OpenTraceAt(ra io.ReaderAt, idx TraceIndex) []Trace {
	out := make([]Trace, idx.NumSMs)
	for i := range idx.SMs {
		sm := idx.SMs[i]
		out[i] = &blobTrace{ra: ra, off: sm.Offset, length: sm.Bytes, ops: sm.Ops}
	}
	return out
}

// TraceEncoder writes the IMTTRC format incrementally — declare the SM
// count up front, then BeginSM/WriteOp per record — so a synthetic or
// re-encoded multi-GB trace streams through a bufio.Writer without ever
// existing in memory. Close fails if the declared structure was not
// fully written, so a short encode cannot silently produce a blob that
// IndexTraceStream would reject.
type TraceEncoder struct {
	bw      *bufio.Writer
	buf     [binary.MaxVarintLen64]byte
	smsLeft int
	opsLeft uint64
	err     error
}

// NewTraceEncoder writes the stream header for numSMs SMs.
func NewTraceEncoder(w io.Writer, numSMs int) (*TraceEncoder, error) {
	if numSMs < 0 || numSMs > maxTraceSMs {
		return nil, fmt.Errorf("gpusim: implausible SM count %d", numSMs)
	}
	e := &TraceEncoder{bw: bufio.NewWriterSize(w, 64<<10), smsLeft: numSMs}
	if _, err := e.bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	if err := e.putUvarint(uint64(numSMs)); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *TraceEncoder) putUvarint(v uint64) error {
	n := binary.PutUvarint(e.buf[:], v)
	_, err := e.bw.Write(e.buf[:n])
	return err
}

func (e *TraceEncoder) fail(err error) error {
	if e.err == nil {
		e.err = err
	}
	return e.err
}

// BeginSM opens the next SM record, declaring its op count. The
// previous SM must have received exactly its declared ops.
func (e *TraceEncoder) BeginSM(numOps uint64) error {
	if e.err != nil {
		return e.err
	}
	if e.opsLeft > 0 {
		return e.fail(fmt.Errorf("gpusim: BeginSM with %d ops still owed to the previous SM", e.opsLeft))
	}
	if e.smsLeft == 0 {
		return e.fail(fmt.Errorf("gpusim: BeginSM past the declared SM count"))
	}
	if numOps > maxTraceOps {
		return e.fail(fmt.Errorf("gpusim: implausible op count %d", numOps))
	}
	e.smsLeft--
	e.opsLeft = numOps
	return e.fail0(e.putUvarint(numOps))
}

// WriteOp appends one op to the current SM record.
func (e *TraceEncoder) WriteOp(op WarpOp) error {
	if e.err != nil {
		return e.err
	}
	if e.opsLeft == 0 {
		return e.fail(fmt.Errorf("gpusim: WriteOp past the current SM's declared op count"))
	}
	if len(op.Addrs) > maxTraceAddrs {
		return e.fail(fmt.Errorf("gpusim: implausible address count %d", len(op.Addrs)))
	}
	var flags byte
	if op.Store {
		flags |= 1
	}
	if op.Atomic {
		flags |= 2
	}
	if err := e.bw.WriteByte(flags); err != nil {
		return e.fail(err)
	}
	if err := e.putUvarint(uint64(op.Compute)); err != nil {
		return e.fail(err)
	}
	if err := e.putUvarint(uint64(len(op.Addrs))); err != nil {
		return e.fail(err)
	}
	for _, a := range op.Addrs {
		if err := e.putUvarint(a); err != nil {
			return e.fail(err)
		}
	}
	e.opsLeft--
	return nil
}

func (e *TraceEncoder) fail0(err error) error {
	if err != nil {
		return e.fail(err)
	}
	return nil
}

// Close flushes the stream, failing if any declared SM or op was never
// written.
func (e *TraceEncoder) Close() error {
	if e.err != nil {
		return e.err
	}
	if e.smsLeft > 0 || e.opsLeft > 0 {
		return e.fail(fmt.Errorf("gpusim: trace encoder closed with %d SMs and %d ops unwritten", e.smsLeft, e.opsLeft))
	}
	return e.fail0(e.bw.Flush())
}

// WriteTraces drains the given traces and writes them to w through a
// TraceEncoder, so a file it writes always passes IndexTraceStream.
// Each SM's ops are buffered to learn the op count its record declares;
// nil entries are written as empty (idle) SMs.
//
// CONSUMPTION CONTRACT: a Trace is a one-shot stream, and WriteTraces
// reads every trace to exhaustion — afterwards the inputs yield no
// further ops and cannot drive a simulation. Callers that need the
// traces again write CloneTraces copies instead, or replay the written
// bytes with IndexTraceStream and OpenTraceAt.
func WriteTraces(w io.Writer, traces []Trace) error {
	enc, err := NewTraceEncoder(w, len(traces))
	if err != nil {
		return err
	}
	for _, tr := range traces {
		var ops []WarpOp
		if tr != nil {
			for {
				op, ok := tr.Next()
				if !ok {
					break
				}
				ops = append(ops, op)
			}
		}
		if err := enc.BeginSM(uint64(len(ops))); err != nil {
			return err
		}
		for _, op := range ops {
			if err := enc.WriteOp(op); err != nil {
				return err
			}
		}
	}
	return enc.Close()
}
