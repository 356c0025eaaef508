package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"twolm/internal/core"
	"twolm/internal/imc"
	"twolm/internal/kernels"
	"twolm/internal/mem"
	"twolm/internal/platform"
)

func newSystem(t *testing.T, mode core.Mode) *core.System {
	t.Helper()
	return newPolicySystem(t, mode, nil)
}

// newPolicySystem is newSystem with a 2LM controller policy override
// (nil selects the hardware policy).
func newPolicySystem(t *testing.T, mode core.Mode, policy *imc.Policy) *core.System {
	t.Helper()
	sys, err := core.New(core.Config{
		Platform: platform.Config{
			Sockets: 1, ChannelsPerSocket: 6,
			DRAMPerChannel:  mem.MiB,
			NVRAMPerChannel: 64 * mem.MiB,
			Scale:           1, Threads: 24,
		},
		Mode:     mode,
		LLCBytes: 16 * mem.KiB,
		Policy:   policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRoundTrip: events decode to exactly what was encoded.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	events := []Event{
		{Op: core.TapLoad, Addr: 0},
		{Op: core.TapLoad, Addr: 64},
		{Op: core.TapStore, Addr: 1 << 30},
		{IsSync: true, Label: "k1", Compute: 0.125},
		{Op: core.TapStoreNT, Addr: 128},
		{Op: core.TapRMW, Addr: 0xdeadbe40},
		{IsSync: true, Label: "", Compute: 0},
	}
	for _, ev := range events {
		if ev.IsSync {
			w.Sync(ev.Label, ev.Compute)
		} else {
			w.Access(ev.Op, ev.Addr)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Ops() != 5 {
		t.Errorf("Ops = %d, want 5", w.Ops())
	}

	r := NewReader(&buf)
	for i, want := range events {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("expected clean EOF, got %v", err)
	}
	// Subsequent reads stay EOF.
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("EOF not sticky: %v", err)
	}
}

// TestRoundTripProperty: arbitrary address sequences survive encoding.
func TestRoundTripProperty(t *testing.T) {
	f := func(addrs []uint32, ops []uint8) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var want []Event
		for i, a := range addrs {
			op := core.TapOp(0)
			if i < len(ops) {
				op = core.TapOp(ops[i] % 4)
			}
			addr := uint64(a)
			w.Access(op, addr)
			want = append(want, Event{Op: op, Addr: addr})
		}
		if err := w.Close(); err != nil {
			return false
		}
		r := NewReader(&buf)
		for _, wv := range want {
			got, err := r.Next()
			if err != nil || got != wv {
				return false
			}
		}
		_, err := r.Next()
		return errors.Is(err, io.EOF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCorruptStreams: bad inputs produce ErrCorrupt, not panics.
func TestCorruptStreams(t *testing.T) {
	cases := [][]byte{
		{},                         // empty
		{'X', 'X', 'X', 'X'},       // bad magic
		{'2', 'L', 'M', '1'},       // missing end marker
		{'2', 'L', 'M', '1', 99},   // unknown opcode
		{'2', 'L', 'M', '1', 0},    // truncated delta
		{'2', 'L', 'M', '1', 4, 1}, // truncated sync
	}
	for i, raw := range cases {
		r := NewReader(bytes.NewReader(raw))
		for {
			_, err := r.Next()
			if errors.Is(err, io.EOF) {
				t.Errorf("case %d: corrupt stream decoded cleanly", i)
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("case %d: error %v is not ErrCorrupt", i, err)
				}
				break
			}
		}
	}
}

// TestShortLabelAllocatesByPresentBytes: a sync record declaring a
// 1 MiB label over a stream that ends a byte later is a truncated
// label, and decoding it allocates far less than the declared length.
func TestShortLabelAllocatesByPresentBytes(t *testing.T) {
	const declared = 1 << 20
	raw := append([]byte{'2', 'L', 'M', '1', opSync, 0, 0, 0, 0, 0, 0, 0, 0}, binary.AppendUvarint(nil, declared)...)
	raw = append(raw, 'x')

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(raw)).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "truncated label") {
		t.Fatalf("Next = %v, want ErrCorrupt truncated label", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > declared/16 {
		t.Errorf("decoding %d bytes allocated %d bytes, want at most %d", len(raw), got, declared/16)
	}
}

// TestRecordReplayEquivalence is the package's reason to exist: a
// workload recorded on one system replays onto an identical fresh
// system with identical counters and clock.
func TestRecordReplayEquivalence(t *testing.T) {
	recSys := newSystem(t, core.Mode2LM)
	region, err := recSys.AddressSpace().Alloc(4 * recSys.Platform().DRAMSize())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Attach(recSys)
	if _, err := kernels.Run(recSys, region, kernels.Spec{
		Op: kernels.ReadModifyWrite, Pattern: mem.Random, Threads: 24,
	}); err != nil {
		t.Fatal(err)
	}
	Detach(recSys)
	w.Sync("end", 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	replaySys := newSystem(t, core.Mode2LM)
	replaySys.SetThreads(24)
	replaySys.SetTraffic(mem.Random, mem.Line)
	ops, err := Replay(replaySys, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if ops == 0 {
		t.Fatal("nothing replayed")
	}
	replaySys.DrainLLC()
	replaySys.Sync("drain", 0)

	a, b := recSys.Counters(), replaySys.Counters()
	if a != b {
		t.Errorf("counters diverge:\nrecorded: %v\nreplayed: %v", a, b)
	}
}

// TestReplayAcrossPolicies: the same trace drives differently
// configured systems — here the DDO ablation — and the counters react.
func TestReplayAcrossPolicies(t *testing.T) {
	recSys := newSystem(t, core.Mode2LM)
	region, _ := recSys.AddressSpace().Alloc(recSys.Platform().DRAMSize() / 4)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Attach(recSys)
	if _, err := kernels.Run(recSys, region, kernels.Spec{Op: kernels.ReadModifyWrite, Threads: 4}); err != nil {
		t.Fatal(err)
	}
	Detach(recSys)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	run := func(disableDDO bool) uint64 {
		policy := imc.HardwarePolicy()
		policy.DisableDDO = disableDDO
		sys := newPolicySystem(t, core.Mode2LM, &policy)
		if _, err := Replay(sys, bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		sys.DrainLLC()
		return sys.Counters().DRAMRead
	}
	if with, without := run(false), run(true); without <= with {
		t.Errorf("replayed ablation showed no extra tag checks: %d vs %d", without, with)
	}
}

// TestCompactEncoding: sequential traces cost ~2 bytes per access.
func TestCompactEncoding(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		w.Access(core.TapLoad, i*mem.Line)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Opcode byte + 2-byte varint for the 64 B stride.
	if perOp := float64(buf.Len()) / n; perOp > 3.1 {
		t.Errorf("sequential encoding costs %.1f bytes/op, want ~3", perOp)
	}
}

// TestWriterErrorSticky: a failing underlying writer surfaces at Close.
func TestWriterErrorSticky(t *testing.T) {
	w := NewWriter(failWriter{})
	for i := 0; i < 10000; i++ { // enough to overflow the bufio buffer
		w.Access(core.TapLoad, rand.Uint64())
	}
	if err := w.Close(); err == nil {
		t.Error("Close succeeded despite write failures")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("boom") }
