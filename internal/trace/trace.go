// Package trace records and replays demand-access traces. The paper's
// methodology leans on deterministic, repeatable access streams ("our
// benchmarks are long running and largely deterministic, we run them
// twice to obtain both bandwidth and tag events"); this package makes
// any simulated workload repeatable the same way: record its operation
// stream once, then replay it against differently configured systems
// (other modes, policies, associativities) for apples-to-apples
// counter comparisons.
//
// The format is a compact binary stream: each record is one opcode
// byte followed by a zigzag-varint address delta (accesses) or a
// float64 plus a length-prefixed label (sync points). Sequential
// streams encode in ~2 bytes per access.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"twolm/internal/core"
)

// magic identifies trace streams.
var magic = [4]byte{'2', 'L', 'M', '1'}

// Opcodes.
const (
	opLoad byte = iota
	opStore
	opStoreNT
	opRMW
	opSync
	opEnd
)

// Writer serializes a trace.
type Writer struct {
	w        *bufio.Writer
	lastAddr uint64
	started  bool
	err      error
	ops      uint64
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// start lazily emits the header.
func (t *Writer) start() {
	if t.started || t.err != nil {
		return
	}
	t.started = true
	_, t.err = t.w.Write(magic[:])
}

// putUvarint writes v.
func (t *Writer) putUvarint(v uint64) {
	if t.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, t.err = t.w.Write(buf[:n])
}

// zigzag encodes a signed delta as unsigned.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Access records one demand operation.
func (t *Writer) Access(op core.TapOp, addr uint64) {
	t.start()
	if t.err != nil {
		return
	}
	var code byte
	switch op {
	case core.TapLoad:
		code = opLoad
	case core.TapStore:
		code = opStore
	case core.TapStoreNT:
		code = opStoreNT
	case core.TapRMW:
		code = opRMW
	default:
		t.err = fmt.Errorf("trace: unknown op %d", op)
		return
	}
	t.err = t.w.WriteByte(code)
	t.putUvarint(zigzag(int64(addr) - int64(t.lastAddr)))
	t.lastAddr = addr
	t.ops++
}

// Sync records an interval boundary with its compute time and label.
func (t *Writer) Sync(label string, computeSeconds float64) {
	t.start()
	if t.err != nil {
		return
	}
	t.err = t.w.WriteByte(opSync)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(computeSeconds))
	if t.err == nil {
		_, t.err = t.w.Write(buf[:])
	}
	t.putUvarint(uint64(len(label)))
	if t.err == nil {
		_, t.err = t.w.WriteString(label)
	}
}

// Ops returns the number of accesses recorded.
func (t *Writer) Ops() uint64 { return t.ops }

// Close terminates and flushes the stream.
func (t *Writer) Close() error {
	t.start()
	if t.err != nil {
		return t.err
	}
	if err := t.w.WriteByte(opEnd); err != nil {
		return err
	}
	return t.w.Flush()
}

// Attach wires the writer into sys: every subsequent demand operation
// is recorded. Call sys.SetTap(nil) (or Detach) when done; Sync events
// must be recorded explicitly via the returned sync function, since
// the system does not tap its own Sync.
func (t *Writer) Attach(sys *core.System) {
	sys.SetTap(t.Access)
}

// Detach removes the tap.
func Detach(sys *core.System) { sys.SetTap(nil) }

// Event is one decoded trace record.
type Event struct {
	// Op is the demand operation; valid when !IsSync.
	Op   core.TapOp
	Addr uint64
	// IsSync marks an interval boundary carrying Label and Compute.
	IsSync  bool
	Label   string
	Compute float64
}

// Reader decodes a trace.
type Reader struct {
	r        *bufio.Reader
	lastAddr uint64
	started  bool
	done     bool
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// ErrCorrupt reports a malformed trace stream.
var ErrCorrupt = errors.New("trace: corrupt stream")

// Next decodes the next event; io.EOF signals a clean end.
func (t *Reader) Next() (Event, error) {
	if t.done {
		return Event{}, io.EOF
	}
	if !t.started {
		var hdr [4]byte
		if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
			return Event{}, fmt.Errorf("%w: missing header", ErrCorrupt)
		}
		if hdr != magic {
			return Event{}, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:])
		}
		t.started = true
	}
	code, err := t.r.ReadByte()
	if err != nil {
		return Event{}, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	switch code {
	case opEnd:
		t.done = true
		return Event{}, io.EOF
	case opSync:
		var buf [8]byte
		if _, err := io.ReadFull(t.r, buf[:]); err != nil {
			return Event{}, fmt.Errorf("%w: truncated sync", ErrCorrupt)
		}
		compute := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		n, err := binary.ReadUvarint(t.r)
		if err != nil {
			return Event{}, fmt.Errorf("%w: truncated label length", ErrCorrupt)
		}
		if n > 1<<20 {
			return Event{}, fmt.Errorf("%w: label length %d", ErrCorrupt, n)
		}
		// Copy rather than allocate the declared length up front, so a
		// short stream declaring a long label costs only the bytes it
		// actually holds.
		var label bytes.Buffer
		if _, err := io.CopyN(&label, t.r, int64(n)); err != nil {
			return Event{}, fmt.Errorf("%w: truncated label", ErrCorrupt)
		}
		return Event{IsSync: true, Label: label.String(), Compute: compute}, nil
	case opLoad, opStore, opStoreNT, opRMW:
		d, err := binary.ReadUvarint(t.r)
		if err != nil {
			return Event{}, fmt.Errorf("%w: truncated delta", ErrCorrupt)
		}
		addr := uint64(int64(t.lastAddr) + unzigzag(d))
		t.lastAddr = addr
		var op core.TapOp
		switch code {
		case opLoad:
			op = core.TapLoad
		case opStore:
			op = core.TapStore
		case opStoreNT:
			op = core.TapStoreNT
		default:
			op = core.TapRMW
		}
		return Event{Op: op, Addr: addr}, nil
	default:
		return Event{}, fmt.Errorf("%w: opcode %d", ErrCorrupt, code)
	}
}

// Replay drives sys with every event of the trace: accesses become
// demand operations, sync records close intervals. Returns the number
// of accesses replayed.
func Replay(sys *core.System, r io.Reader) (uint64, error) {
	tr := NewReader(r)
	var ops uint64
	for {
		ev, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return ops, nil
		}
		if err != nil {
			return ops, err
		}
		if ev.IsSync {
			sys.Sync(ev.Label, ev.Compute)
			continue
		}
		ops++
		switch ev.Op {
		case core.TapLoad:
			sys.Load(ev.Addr)
		case core.TapStore:
			sys.Store(ev.Addr)
		case core.TapStoreNT:
			sys.StoreNT(ev.Addr)
		case core.TapRMW:
			sys.RMW(ev.Addr)
		}
	}
}
