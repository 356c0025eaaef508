package imc

import (
	"testing"

	"twolm/internal/dram"
	"twolm/internal/mem"
	"twolm/internal/nvram"
	"twolm/internal/telemetry"
)

func newTestModules(t *testing.T) (*dram.Module, *nvram.Module) {
	t.Helper()
	d, err := dram.New(1, 48*mem.KiB)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := nvram.New(1, 288*mem.KiB)
	if err != nil {
		t.Fatal(err)
	}
	return d, nv
}

// TestNewDefaultsToHardwarePolicy: New without options is the Cascade
// Lake hardware controller, and an explicit WithPolicy(HardwarePolicy())
// builds the identical configuration.
func TestNewDefaultsToHardwarePolicy(t *testing.T) {
	d, nv := newTestModules(t)
	c, err := New(d, nv)
	if err != nil {
		t.Fatal(err)
	}
	if c.Policy() != HardwarePolicy() {
		t.Errorf("default policy = %+v, want %+v", c.Policy(), HardwarePolicy())
	}
	d2, nv2 := newTestModules(t)
	explicit, err := New(d2, nv2, WithPolicy(HardwarePolicy()))
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Policy() != c.Policy() {
		t.Errorf("explicit hardware policy = %+v, want %+v", explicit.Policy(), c.Policy())
	}
}

// TestWithTelemetryHook: a controller with a sink attached by
// SetTelemetry records samples at demand boundaries from the range
// entry points, and FlushTelemetry captures the tail.
func TestWithTelemetryHook(t *testing.T) {
	d, nv := newTestModules(t)
	rec := telemetry.NewRecorder()
	c, err := New(d, nv)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTelemetry(rec, 100)
	c.LLCReadRange(0, 250)
	if rec.Len() != 1 {
		t.Fatalf("after one 250-line range: %d samples, want 1", rec.Len())
	}
	if got := last(rec).Demand; got != 250 {
		t.Errorf("sample demand = %d, want 250 (boundary crossed mid-range records at the range end)", got)
	}
	c.LLCWriteRange(0, 49)
	if rec.Len() != 1 {
		t.Error("sampled below the next boundary")
	}
	c.LLCWriteRange(0, 1)
	if rec.Len() != 2 {
		t.Error("boundary crossing at 300 demand lines not sampled")
	}
	c.LLCReadRange(0, 7)
	c.FlushTelemetry()
	if rec.Len() != 3 || last(rec).Demand != 307 {
		t.Errorf("flush: len=%d last=%d, want 3 samples ending at 307", rec.Len(), last(rec).Demand)
	}
	c.FlushTelemetry()
	if rec.Len() != 3 {
		t.Error("idle flush recorded a duplicate")
	}
}

// last returns the most recent sample rec holds.
func last(rec *telemetry.Recorder) telemetry.Sample {
	s := rec.Samples()
	return s[len(s)-1]
}

// TestSnapshotMatchesCounters: the telemetry sample mirrors the
// counter snapshot field for field and carries per-channel CAS counts.
func TestSnapshotMatchesCounters(t *testing.T) {
	d, nv := newTestModules(t)
	c, err := New(d, nv)
	if err != nil {
		t.Fatal(err)
	}
	c.LLCReadRange(0, 1000)
	c.LLCWriteRange(0, 500)
	ctr := c.Counters()
	s := c.Snapshot()
	if s.Demand != ctr.Demand() || s.LLCRead != ctr.LLCRead || s.LLCWrite != ctr.LLCWrite ||
		s.DRAMRead != ctr.DRAMRead || s.DRAMWrite != ctr.DRAMWrite ||
		s.NVRAMRead != ctr.NVRAMRead || s.NVRAMWrite != ctr.NVRAMWrite ||
		s.TagHit != ctr.TagHit || s.TagMissClean != ctr.TagMissClean ||
		s.TagMissDirty != ctr.TagMissDirty || s.DDO != ctr.DDO {
		t.Errorf("snapshot %+v does not mirror counters %v", s, ctr)
	}
	if s.MediaReads != 0 || s.MediaWrites != 0 {
		t.Error("controller snapshots must not carry media counters")
	}
	var chTotal uint64
	for i := range s.ChannelReads {
		chTotal += s.ChannelReads[i] + s.ChannelWrites[i]
	}
	if chTotal != ctr.DRAMRead+ctr.DRAMWrite {
		t.Errorf("channel CAS total %d, want %d", chTotal, ctr.DRAMRead+ctr.DRAMWrite)
	}
}

// TestResetCountersRestartsSampling: after a reset the demand clock
// rewinds, and sampling restarts from the first boundary.
func TestResetCountersRestartsSampling(t *testing.T) {
	d, nv := newTestModules(t)
	rec := telemetry.NewRecorder()
	c, err := New(d, nv)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTelemetry(rec, 100)
	c.LLCReadRange(0, 150)
	c.ResetCounters()
	c.LLCReadRange(0, 50)
	if rec.Len() != 1 {
		t.Fatalf("sample count after reset = %d, want 1 (no boundary crossed yet)", rec.Len())
	}
	c.LLCReadRange(0, 50)
	if rec.Len() != 2 || last(rec).Demand != 100 {
		t.Errorf("post-reset boundary: len=%d last=%d, want sample at demand 100", rec.Len(), last(rec).Demand)
	}
}
