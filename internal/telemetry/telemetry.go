// Package telemetry is the unified instrumentation surface of the
// simulator: one Sample shape for every counter producer, one Source
// interface for snapshotting them, and one Sink interface for
// consuming deterministic counter time-series.
//
// The paper's core evidence is time-series uncore-counter traces
// (Figures 5-9: DRAM and NVRAM bandwidth over the run, not just
// end-of-run totals). Before this package the repository had four
// ad-hoc observability surfaces — imc.Controller.Counters snapshots,
// internal/perfcounter, engine.ThroughputReport's bespoke JSON and
// results.Table — each with its own sampling and serialization
// conventions. telemetry replaces that scatter with a single seam:
//
//   - Source is implemented by imc.Controller, core.System and
//     nvram.Module; a Snapshot is cheap and always consistent because
//     every producer is single-writer.
//   - Sink has three shipped implementations: Recorder (deterministic
//     in-memory time series with CSV/JSON writers), TraceSink (the
//     Figure 5-9-style artifact writer), and Prom (Prometheus text
//     exposition over HTTP for live inspection of long runs).
//
// # Determinism rules
//
// Samples are clocked by *demand lines*, not wall time: a producer
// samples when its cumulative LLC demand count crosses a multiple of
// the configured interval. Wall clocks never enter a Sample (the
// detrange analyzer enforces this package-wide), so a recorded series
// is byte-identical across runs; engine's TestMultiChannelGoldenDigests
// pins the multichannel self-check's series byte for byte.
//
// Hooks in producers live only at batched range boundaries
// (imc LLCReadRange/LLCWriteRange and the core.System Range entry
// points) behind a nil-sink check, so the disabled cost of the whole
// subsystem is one branch per range.
package telemetry

// Sample is one cumulative observation of a producer's counters. All
// counter fields are monotonic totals since the producer's last
// reset; interval deltas are derived by Sub. Line-granular fields are
// in 64 B lines, media fields in 256 B media blocks.
type Sample struct {
	// Demand is the sample clock: cumulative LLC demand requests
	// (reads + writes) observed by the producer, in lines. Sampling
	// is keyed to this, never to wall time.
	Demand uint64 `json:"demand"`
	// Clock is the producer's simulated time in seconds, for sources
	// with a time model (core.System); 0 otherwise.
	Clock float64 `json:"clock_s"`
	// Label annotates the sample (kernel phase, experiment, source).
	Label string `json:"label,omitempty"`

	LLCRead  uint64 `json:"llc_read"`
	LLCWrite uint64 `json:"llc_write"`

	DRAMRead   uint64 `json:"dram_read"`
	DRAMWrite  uint64 `json:"dram_write"`
	NVRAMRead  uint64 `json:"nvram_read"`
	NVRAMWrite uint64 `json:"nvram_write"`

	TagHit       uint64 `json:"tag_hit"`
	TagMissClean uint64 `json:"tag_miss_clean"`
	TagMissDirty uint64 `json:"tag_miss_dirty"`
	DDO          uint64 `json:"ddo"`

	// ChannelReads/ChannelWrites are per-DRAM-channel CAS counters,
	// in channel order, when the producer exposes them (nil
	// otherwise).
	ChannelReads  []uint64 `json:"channel_reads,omitempty"`
	ChannelWrites []uint64 `json:"channel_writes,omitempty"`

	// MediaReads/MediaWrites are NVRAM media-block counters, filled
	// by media-granularity sources (nvram.Module). They are kept out
	// of controller samples because media merging depends on how the
	// address stream is partitioned over combining buffers: a serial
	// controller and a line-interleaved channel split of the same
	// stream merge differently.
	MediaReads  uint64 `json:"media_reads,omitempty"`
	MediaWrites uint64 `json:"media_writes,omitempty"`
}

// Source is a counter producer that can be snapshotted at any point
// between operations. Implementations are single-writer: a Snapshot
// taken from the owning goroutine is always consistent.
type Source interface {
	Snapshot() Sample
}

// Sink consumes cumulative samples. Record must be cheap; sinks that
// do I/O should buffer. Every producer records from its own goroutine;
// a Sink shared by concurrent producers (Prom across parallel suite
// jobs) must lock, as Prom does — HTTP scrapes are concurrent by
// nature anyway.
type Sink interface {
	Record(Sample)
}

// Sub returns s minus earlier field-wise, clamping counters at zero —
// the interval-delta form used by bandwidth traces. Slices are
// subtracted element-wise over the shorter length.
func (s Sample) Sub(earlier Sample) Sample {
	d := s
	d.LLCRead = subU64(s.LLCRead, earlier.LLCRead)
	d.LLCWrite = subU64(s.LLCWrite, earlier.LLCWrite)
	d.DRAMRead = subU64(s.DRAMRead, earlier.DRAMRead)
	d.DRAMWrite = subU64(s.DRAMWrite, earlier.DRAMWrite)
	d.NVRAMRead = subU64(s.NVRAMRead, earlier.NVRAMRead)
	d.NVRAMWrite = subU64(s.NVRAMWrite, earlier.NVRAMWrite)
	d.TagHit = subU64(s.TagHit, earlier.TagHit)
	d.TagMissClean = subU64(s.TagMissClean, earlier.TagMissClean)
	d.TagMissDirty = subU64(s.TagMissDirty, earlier.TagMissDirty)
	d.DDO = subU64(s.DDO, earlier.DDO)
	d.MediaReads = subU64(s.MediaReads, earlier.MediaReads)
	d.MediaWrites = subU64(s.MediaWrites, earlier.MediaWrites)
	d.Demand = subU64(s.Demand, earlier.Demand)
	d.Clock = s.Clock - earlier.Clock
	if d.Clock < 0 {
		d.Clock = 0
	}
	d.ChannelReads = subSlices(s.ChannelReads, earlier.ChannelReads)
	d.ChannelWrites = subSlices(s.ChannelWrites, earlier.ChannelWrites)
	return d
}

func subU64(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

func subSlices(a, b []uint64) []uint64 {
	if a == nil {
		return nil
	}
	out := make([]uint64, len(a))
	for i, v := range a {
		if i < len(b) {
			out[i] = subU64(v, b[i])
		} else {
			out[i] = v
		}
	}
	return out
}

// lineBytes is the transaction granularity of every line-counter
// field (64 B cache lines).
const lineBytes = 64

// bytesPerSec converts a line count over dur seconds into bytes/s.
func bytesPerSec(lines uint64, dur float64) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(lines*lineBytes) / dur
}

// DRAMReadBW returns the delta sample's DRAM read bandwidth in
// bytes/s (0 when the sample carries no time).
func (s Sample) DRAMReadBW() float64 { return bytesPerSec(s.DRAMRead, s.Clock) }

// DRAMWriteBW returns the delta sample's DRAM write bandwidth in bytes/s.
func (s Sample) DRAMWriteBW() float64 { return bytesPerSec(s.DRAMWrite, s.Clock) }

// NVRAMReadBW returns the delta sample's NVRAM read bandwidth in bytes/s.
func (s Sample) NVRAMReadBW() float64 { return bytesPerSec(s.NVRAMRead, s.Clock) }

// NVRAMWriteBW returns the delta sample's NVRAM write bandwidth in bytes/s.
func (s Sample) NVRAMWriteBW() float64 { return bytesPerSec(s.NVRAMWrite, s.Clock) }

// MemoryAccesses returns all DRAM + NVRAM line transactions.
func (s Sample) MemoryAccesses() uint64 {
	return s.DRAMRead + s.DRAMWrite + s.NVRAMRead + s.NVRAMWrite
}

// Amplification returns memory accesses per demand request — the
// paper's access-amplification metric — or 0 with no demand.
func (s Sample) Amplification() float64 {
	if s.Demand == 0 {
		return 0
	}
	return float64(s.MemoryAccesses()) / float64(s.Demand)
}

// --- sink combinators -------------------------------------------------

// tee fans a sample out to several sinks in order.
type tee struct{ sinks []Sink }

func (t tee) Record(s Sample) {
	for _, sk := range t.sinks {
		sk.Record(s)
	}
}

// Tee returns a sink that forwards every sample to each non-nil sink
// in order. Nil entries are dropped; with zero (or all-nil) sinks it
// returns nil, which producers treat as telemetry-disabled.
func Tee(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return tee{sinks: kept}
}

// labeled stamps a label onto unlabeled samples.
type labeled struct {
	sink  Sink
	label string
}

func (l labeled) Record(s Sample) {
	if s.Label == "" {
		s.Label = l.label
	}
	l.sink.Record(s)
}

// WithLabel returns a sink that stamps label onto samples recorded
// through it, leaving already-labeled samples alone. Nil sinks pass
// through as nil.
func WithLabel(sink Sink, label string) Sink {
	if sink == nil {
		return nil
	}
	return labeled{sink: sink, label: label}
}

// --- sampler ----------------------------------------------------------

// Sampler drives a Sink from a Source at a fixed demand-line
// interval: Tick snapshots the source and records iff the source's
// cumulative demand has crossed the next multiple of Every since the
// last recorded sample. It is the generic driver for producers that
// do not embed their own hook (per-op replay loops, tests); the
// controller and engine hooks implement the same boundary rule
// inline so their disabled cost stays one branch.
type Sampler struct {
	src   Source
	sink  Sink
	every uint64
	next  uint64
	last  uint64 // demand at the last recorded sample
	have  bool   // a sample has been recorded
}

// NewSampler returns a sampler emitting every `every` demand lines
// (every == 0 records on each Tick).
func NewSampler(src Source, sink Sink, every uint64) *Sampler {
	return &Sampler{src: src, sink: sink, every: every, next: every}
}

// Tick samples the source if its demand clock crossed the sampling
// boundary, returning whether a sample was recorded. Multiple
// boundaries crossed since the last Tick collapse into one sample —
// the recorded series reflects the producer's batching points, which
// deterministic comparisons must share.
func (sp *Sampler) Tick() bool {
	snap := sp.src.Snapshot()
	if snap.Demand < sp.next {
		return false
	}
	sp.record(snap)
	return true
}

// Flush records a final sample if demand advanced past the last
// recorded sample — the end-of-run partial interval.
func (sp *Sampler) Flush() bool {
	snap := sp.src.Snapshot()
	if sp.have && snap.Demand == sp.last {
		return false
	}
	sp.record(snap)
	return true
}

func (sp *Sampler) record(snap Sample) {
	sp.sink.Record(snap)
	sp.last = snap.Demand
	sp.have = true
	if sp.every == 0 {
		sp.next = snap.Demand + 1
	} else {
		sp.next = (snap.Demand/sp.every + 1) * sp.every
	}
}

// NextBoundary returns the first sampling boundary strictly above
// demand for the given interval — the shared advance rule of every
// inline producer hook (every == 0 means "next demand line").
func NextBoundary(demand, every uint64) uint64 {
	if every == 0 {
		return demand + 1
	}
	return (demand/every + 1) * every
}
