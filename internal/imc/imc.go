// Package imc models the integrated memory controller of a Cascade Lake
// socket operating in 2LM ("memory mode"): DRAM as a transparent,
// hardware-managed, direct-mapped cache in front of NVRAM.
//
// The controller implements exactly the decision flow the paper reverse
// engineers (Figure 3) and generates exactly the per-request DRAM and
// NVRAM transactions of Table I:
//
//	                LLC Read            LLC Write
//	             Hit  MissC MissD   Hit  MissC MissD  DDO
//	DRAM Read     1     1     1      1     1     1     -
//	DRAM Write    -     1     1      1     2     2     1
//	NVRAM Read    -     1     1      -     1     1     -
//	NVRAM Write   -     -     1      -     -     1     -
//	Amplification 1     3     4      2     4     5     1
//
// table1.go holds that flow once, as decide, and that table once, as
// rows; the controller counts requests per outcome and derives its
// Counters from the rows.
//
// Key behaviors:
//
//   - Tags live in the DRAM ECC bits, so every DRAM data read returns
//     the tag for free, but a write requires a preceding read purely for
//     the tag check.
//   - The controller always inserts on a miss, even a write miss whose
//     incoming line fully overwrites the fetched data (the paper's
//     "best guess" for the observed second DRAM write; Section IV-B).
//   - Dirty victims are written back to NVRAM on the miss path, before
//     the fill.
//   - Dirty Data Optimization (DDO): an LLC writeback of a line that the
//     on-chip hierarchy acquired from this controller (and whose set has
//     not been re-allocated since) skips the tag check and goes straight
//     to DRAM. The paper observes the effect but not the mechanism
//     (Section IV-C); tracking LLC ownership reproduces the observed
//     traffic: read-modify-write with standard stores gets DDO, while
//     nontemporal store streams do not.
package imc

import (
	"fmt"

	"twolm/internal/cache"
	"twolm/internal/dram"
	"twolm/internal/mem"
	"twolm/internal/nvram"
	"twolm/internal/telemetry"
)

// Counters are the uncore performance-counter events the controller
// exposes, in 64 B line units, matching the taxonomy of the paper's
// Section III-B (CAS counts, PMM read/write requests, 2LM tag events).
type Counters struct {
	DRAMRead   uint64 // DRAM CAS reads
	DRAMWrite  uint64 // DRAM CAS writes
	NVRAMRead  uint64 // NVRAM read requests
	NVRAMWrite uint64 // NVRAM write requests

	TagHit       uint64 // 2LM tag hit
	TagMissClean uint64 // 2LM tag miss, clean victim
	TagMissDirty uint64 // 2LM tag miss, dirty victim

	DDO uint64 // writes forwarded via the Dirty Data Optimization

	LLCRead  uint64 // demand requests from the LLC (loads + RFOs)
	LLCWrite uint64 // writebacks / nontemporal stores from the LLC
}

// Add returns c with other added field-wise.
func (c Counters) Add(other Counters) Counters {
	c.DRAMRead += other.DRAMRead
	c.DRAMWrite += other.DRAMWrite
	c.NVRAMRead += other.NVRAMRead
	c.NVRAMWrite += other.NVRAMWrite
	c.TagHit += other.TagHit
	c.TagMissClean += other.TagMissClean
	c.TagMissDirty += other.TagMissDirty
	c.DDO += other.DDO
	c.LLCRead += other.LLCRead
	c.LLCWrite += other.LLCWrite
	return c
}

// sub64 subtracts b from a, clamping at zero instead of wrapping.
func sub64(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

// Sub returns c minus other field-wise, clamping each field at zero;
// used for interval deltas. Counters are monotonic, so a snapshot taken
// later can never be smaller — a field that would underflow means the
// snapshots were swapped, and clamping keeps the bad delta visible as
// zero instead of a wrapped near-2^64 count that corrupts every derived
// rate and amplification.
func (c Counters) Sub(other Counters) Counters {
	c.DRAMRead = sub64(c.DRAMRead, other.DRAMRead)
	c.DRAMWrite = sub64(c.DRAMWrite, other.DRAMWrite)
	c.NVRAMRead = sub64(c.NVRAMRead, other.NVRAMRead)
	c.NVRAMWrite = sub64(c.NVRAMWrite, other.NVRAMWrite)
	c.TagHit = sub64(c.TagHit, other.TagHit)
	c.TagMissClean = sub64(c.TagMissClean, other.TagMissClean)
	c.TagMissDirty = sub64(c.TagMissDirty, other.TagMissDirty)
	c.DDO = sub64(c.DDO, other.DDO)
	c.LLCRead = sub64(c.LLCRead, other.LLCRead)
	c.LLCWrite = sub64(c.LLCWrite, other.LLCWrite)
	return c
}

// Demand returns the number of demand (LLC-originated) requests.
func (c Counters) Demand() uint64 { return c.LLCRead + c.LLCWrite }

// MemoryAccesses returns all DRAM + NVRAM transactions generated.
func (c Counters) MemoryAccesses() uint64 {
	return c.DRAMRead + c.DRAMWrite + c.NVRAMRead + c.NVRAMWrite
}

// Amplification returns memory accesses per demand request — the
// paper's "access amplification" metric (Lowe-Power 2017).
func (c Counters) Amplification() float64 {
	d := c.Demand()
	if d == 0 {
		return 0
	}
	return float64(c.MemoryAccesses()) / float64(d)
}

// TagAccesses returns the total tag events (hits + misses).
func (c Counters) TagAccesses() uint64 {
	return c.TagHit + c.TagMissClean + c.TagMissDirty
}

// HitRate returns TagHit / tag accesses, or 0 with no accesses.
func (c Counters) HitRate() float64 {
	t := c.TagAccesses()
	if t == 0 {
		return 0
	}
	return float64(c.TagHit) / float64(t)
}

// String renders the counters compactly for logs and reports.
func (c Counters) String() string {
	return fmt.Sprintf(
		"dramR=%d dramW=%d nvR=%d nvW=%d hit=%d missC=%d missD=%d ddo=%d llcR=%d llcW=%d",
		c.DRAMRead, c.DRAMWrite, c.NVRAMRead, c.NVRAMWrite,
		c.TagHit, c.TagMissClean, c.TagMissDirty, c.DDO, c.LLCRead, c.LLCWrite)
}

// Policy configures the controller's allocation behavior. The real
// hardware always inserts on a miss for both reads and writes; the
// alternatives exist for the ablation experiments exploring the
// future-hardware fixes the paper's discussion suggests.
type Policy struct {
	// Ways is the DRAM cache associativity (hardware: 1).
	Ways int
	// WriteAllocate inserts the line on a write miss (hardware: true).
	// When false, write misses go straight to NVRAM after the tag
	// check, leaving the cache untouched ("write-around").
	WriteAllocate bool
	// ReadAllocate inserts the line on a read miss (hardware: true).
	// When false, read misses are forwarded from NVRAM uncached.
	ReadAllocate bool
	// DisableDDO turns the Dirty Data Optimization off.
	DisableDDO bool
}

// HardwarePolicy returns the Cascade Lake behavior the paper measures.
func HardwarePolicy() Policy {
	return Policy{Ways: 1, WriteAllocate: true, ReadAllocate: true}
}

// Controller is a 2LM memory controller: the DRAM cache metadata plus
// the backing DRAM and NVRAM modules and the event counters.
type Controller struct {
	Cache *cache.Assoc
	DRAM  *dram.Module
	NVRAM *nvram.Module

	policy Policy
	// hist counts requests per Table I outcome (table1.go); Counters
	// derives every counter from it.
	hist [nOutcomes]uint64

	// Geometry, copied out of the tag store and DRAM module so the hot
	// request paths touch one cache line of controller state.
	sets uint64
	nch  int

	// Telemetry: an optional sink sampled at demand-line boundaries.
	// The hooks live only at the batched range entry points, behind a
	// nil check, so the disabled cost is one branch per range. The
	// boundary arithmetic lives in telemetry.NextBoundary — this
	// package's hot paths stay division-free (hotdiv).
	sink        telemetry.Sink
	sampleEvery uint64
	nextSample  uint64
	lastSample  uint64 // demand at the last recorded sample
	haveSample  bool

	// Batched dispatch scratch (scatter.go), reused across batches so
	// the steady-state random path allocates nothing.
	scat scatterState

	// Per-stream locator memos. LLC demand reads and LLC writebacks
	// each tend to sweep consecutive lines (the writeback stream is the
	// eviction shadow of the demand stream, trailing it by the on-chip
	// cache size), so each stream remembers its previous line's
	// set/tag/channel and advances them by one instead of re-dividing.
	// The memo is a pure function of the address — nothing in cache or
	// counter state can invalidate it.
	readLoc  streamLocator
	writeLoc streamLocator
}

// streamLocator memoizes the (set, tag, channel) decomposition of the
// previous line of one request stream.
type streamLocator struct {
	line  uint64
	set   uint64
	tag   uint32
	chIdx int
	valid bool
}

// locate decomposes addr into its tag-store set/tag and DRAM channel
// index, taking the incremental path when addr is the line right after
// the stream's previous one.
func (c *Controller) locate(m *streamLocator, addr uint64) (set uint64, tag uint32, chIdx int) {
	line := addr >> mem.LineShift
	if m.valid && line == m.line+1 {
		set, tag, chIdx = m.set+1, m.tag, m.chIdx+1
		if set == c.sets {
			set, tag = 0, tag+1
		}
		if chIdx == c.nch {
			chIdx = 0
		}
	} else {
		set, tag = c.Cache.Index(addr)
		chIdx = c.DRAM.ChannelIndex(addr)
	}
	m.line, m.set, m.tag, m.chIdx, m.valid = line, set, tag, chIdx, true
	return set, tag, chIdx
}

// config collects the optional construction parameters of New.
type config struct {
	policy      Policy
	sink        telemetry.Sink
	sampleEvery uint64
}

// Option configures optional behavior of New.
type Option func(*config)

// WithPolicy overrides the hardware allocation policy, for the
// ablation experiments.
func WithPolicy(p Policy) Option {
	return func(c *config) { c.policy = p }
}

// WithTelemetry attaches a telemetry sink sampled every `every` demand
// lines at range boundaries (every == 0 samples at each range). A nil
// sink leaves telemetry disabled.
func WithTelemetry(sink telemetry.Sink, every uint64) Option {
	return func(c *config) {
		c.sink = sink
		c.sampleEvery = every
	}
}

// New assembles a controller over the given DRAM and NVRAM modules,
// with the Cascade Lake hardware policy unless overridden by options.
// The DRAM module's capacity fixes the cache size; NVRAM backs the
// full address space.
//
// A policy with Ways < 1 is rejected rather than silently clamped to
// direct mapped: an ablation config with a typo'd associativity must
// fail loudly, not run the wrong experiment. Start from HardwarePolicy
// and override fields to get the hardware default of 1.
func New(dramMod *dram.Module, nvramMod *nvram.Module, opts ...Option) (*Controller, error) {
	cfg := config{policy: HardwarePolicy()}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.policy.Ways < 1 {
		return nil, fmt.Errorf("imc: policy ways %d must be >= 1 (start from HardwarePolicy to get the hardware default)", cfg.policy.Ways)
	}
	dc, err := cache.NewAssoc(dramMod.Capacity(), cfg.policy.Ways)
	if err != nil {
		return nil, fmt.Errorf("imc: %w", err)
	}
	c := &Controller{
		Cache:  dc,
		DRAM:   dramMod,
		NVRAM:  nvramMod,
		policy: cfg.policy,
		sets:   dc.Sets(),
		nch:    dramMod.Channels(),
	}
	c.initScatter()
	c.SetTelemetry(cfg.sink, cfg.sampleEvery)
	return c, nil
}

// SetTelemetry attaches (or, with a nil sink, detaches) a telemetry
// sink sampled every `every` demand lines. The next boundary is
// computed from the current counters, so attaching mid-run starts a
// fresh sampling phase.
func (c *Controller) SetTelemetry(sink telemetry.Sink, every uint64) {
	c.sink = sink
	c.sampleEvery = every
	c.haveSample = false
	c.lastSample = 0
	if sink != nil {
		c.nextSample = telemetry.NextBoundary(c.demand(), every)
	}
}

// Snapshot implements telemetry.Source: the controller counters plus
// per-channel DRAM CAS counts. NVRAM media counters are deliberately
// absent — media merging depends on how the address stream is
// partitioned over combining buffers, which a serial controller and
// a line-interleaved channel split do differently; use nvram.Module.Snapshot for media.
func (c *Controller) Snapshot() telemetry.Sample {
	ctr := c.Counters()
	s := telemetry.Sample{
		Demand:       ctr.Demand(),
		LLCRead:      ctr.LLCRead,
		LLCWrite:     ctr.LLCWrite,
		DRAMRead:     ctr.DRAMRead,
		DRAMWrite:    ctr.DRAMWrite,
		NVRAMRead:    ctr.NVRAMRead,
		NVRAMWrite:   ctr.NVRAMWrite,
		TagHit:       ctr.TagHit,
		TagMissClean: ctr.TagMissClean,
		TagMissDirty: ctr.TagMissDirty,
		DDO:          ctr.DDO,
	}
	chs := c.DRAM.ChannelCounters()
	s.ChannelReads = make([]uint64, len(chs))
	s.ChannelWrites = make([]uint64, len(chs))
	for i, ch := range chs {
		s.ChannelReads[i] = ch.CASReads
		s.ChannelWrites[i] = ch.CASWrites
	}
	return s
}

// demand is Counters().Demand() read straight off the outcome
// histogram: every outcome but the FlushAll writeback is one demand
// line (TestTable1Rows pins the rows). The sampling hooks run it on
// every range call, so they skip deriving the other counters.
func (c *Controller) demand() uint64 {
	var d uint64
	for _, n := range c.hist {
		d += n
	}
	return d - c.hist[flushWrite]
}

// maybeSample records a sample if the demand clock crossed the next
// sampling boundary. Callers have already checked sink != nil.
func (c *Controller) maybeSample() {
	d := c.demand()
	if d < c.nextSample {
		return
	}
	c.recordSample(d)
}

//alloc:cold telemetry samples fire once per sampling interval, not per line; the snapshot copies amortize to ~0 allocs/op
func (c *Controller) recordSample(d uint64) {
	c.sink.Record(c.Snapshot())
	c.lastSample = d
	c.haveSample = true
	c.nextSample = telemetry.NextBoundary(d, c.sampleEvery)
}

// FlushTelemetry records a final sample for the partial tail interval
// if demand advanced past the last recorded sample (or none was
// recorded yet). No-op without a sink.
func (c *Controller) FlushTelemetry() {
	if c.sink == nil {
		return
	}
	d := c.demand()
	if c.haveSample && d == c.lastSample {
		return
	}
	c.recordSample(d)
}

// Policy returns the controller's configured policy.
func (c *Controller) Policy() Policy { return c.policy }

// Counters returns a snapshot of the event counters: the sum over
// Table I outcomes of each outcome's count times its row.
//
//hot:entry observers snapshot pooled controllers between and during jobs
func (c *Controller) Counters() Counters {
	var d Counters
	for o, n := range c.hist {
		d.DRAMRead += n * rows[o].delta.DRAMRead
		d.DRAMWrite += n * rows[o].delta.DRAMWrite
		d.NVRAMRead += n * rows[o].delta.NVRAMRead
		d.NVRAMWrite += n * rows[o].delta.NVRAMWrite
		d.TagHit += n * rows[o].delta.TagHit
		d.TagMissClean += n * rows[o].delta.TagMissClean
		d.TagMissDirty += n * rows[o].delta.TagMissDirty
		d.DDO += n * rows[o].delta.DDO
		d.LLCRead += n * rows[o].delta.LLCRead
		d.LLCWrite += n * rows[o].delta.LLCWrite
	}
	return d
}

// ResetCounters zeroes the event counters without touching cache state,
// mirroring how the paper primes the cache and then measures: tags
// installed before the reset keep producing hits after it.
//
// Despite its name, it also resets the backing DRAM and NVRAM modules:
// their CAS/media counters (and the NVRAM write-combining state) belong
// to the same measurement interval, and leaving them running would let
// device counters diverge from the controller counters they must match.
//
// Use Reset instead to also invalidate the cache contents — i.e. to
// make a recycled controller indistinguishable from a freshly
// constructed one.
func (c *Controller) ResetCounters() {
	c.hist = [nOutcomes]uint64{}
	c.DRAM.Reset()
	c.NVRAM.Reset()
	if c.sink != nil {
		// The demand clock rewound to zero; restart the sampling phase.
		c.haveSample = false
		c.lastSample = 0
		c.nextSample = telemetry.NextBoundary(0, c.sampleEvery)
	}
}

// Reset returns the controller to its as-constructed state: counters
// AND cache contents, so a recycled controller is observationally
// identical to one built fresh by New over zeroed modules — the
// property the sweep engine's per-geometry controller reuse depends
// on, proven by the recycled-vs-fresh differential test.
//
// Contrast with ResetCounters, which deliberately preserves cache
// contents (the paper's prime-then-measure protocol). Reset subsumes
// it: the outcome histogram, device modules, telemetry phase, tag
// store and stream locators all rewind. Nothing is reallocated —
// geometry (capacities, channels, DIMMs, ways) and policy are fixed at
// construction, so every buffer is zeroed in place and a worker can
// recycle one controller per geometry class at 0 allocs per job.
//
// Like ResetCounters, Reset rewinds the demand clock, so a snapshot
// delta must not straddle it (the resetcheck analyzer enforces this).
//
//hot:entry sweep workers recycle pooled controllers between jobs
//alloc:free controller recycling is part of the 0-allocs/job sweep contract
func (c *Controller) Reset() {
	c.Cache.Reset()
	// The stream locators memoize a pure function of the address, so
	// stale memos would still be correct — but a fresh controller
	// starts with invalid memos, and Reset promises indistinguishable
	// state, not merely indistinguishable counters.
	c.readLoc = streamLocator{}
	c.writeLoc = streamLocator{}
	c.ResetCounters()
}

// LLCRead services a demand request from the LLC: a load miss or an RFO
// for a store. The data (and its ECC tag) is read from DRAM; on a tag
// miss the line is filled from NVRAM (see line).
//
//hot:entry sweep workers and replay goroutines drive pooled controllers concurrently
//alloc:free per-line demand path, 0 allocs/op by benchmark contract
func (c *Controller) LLCRead(addr uint64) cache.LookupResult {
	set, tag, ch := c.locate(&c.readLoc, addr)
	return result(c.line(set, tag, ch, addr, false))
}

// LLCWrite services a writeback from the LLC — either the eviction of a
// dirty line or a nontemporal store. Returns the tag-check result, or
// Hit with ddo=true when the Dirty Data Optimization elided the check.
//
//hot:entry sweep workers and replay goroutines drive pooled controllers concurrently
//alloc:free per-line writeback path, 0 allocs/op by benchmark contract
func (c *Controller) LLCWrite(addr uint64) (res cache.LookupResult, ddo bool) {
	set, tag, ch := c.locate(&c.writeLoc, addr)
	o := c.line(set, tag, ch, addr, true)
	return result(o), o == writeDDO
}

// LLCReadRange services n consecutive line reads starting at the line
// containing addr — the batched form of calling LLCRead on each line in
// ascending order. Direct-mapped stores with read-allocate take the
// closed-form set-stride fold (seqfold.go); Ways>1 and the
// no-read-allocate ablation walk the lines through line. Counter
// results — imc.Counters, per-channel CAS, NVRAM media counters — are
// byte-identical to the per-line path (the differential tests pin
// this).
//
//hot:entry batched demand path, driven on pooled controllers
//alloc:free batched read path, 0 allocs/op by benchmark contract
func (c *Controller) LLCReadRange(addr uint64, n uint64) {
	if n == 0 {
		return
	}
	if entries := c.Cache.DirectEntries(); entries != nil && c.policy.ReadAllocate {
		c.seqReadRange(entries, addr, n)
	} else {
		c.walk(addr, n, false)
	}
	if c.sink != nil {
		c.maybeSample()
	}
}

// LLCWriteRange services n consecutive line writebacks starting at the
// line containing addr — the batched form of calling LLCWrite on each
// line in ascending order. Direct-mapped stores with write-allocate
// take the closed-form fold (DisableDDO folds too — it only picks the
// uniform write formula); Ways>1 and write-around walk the lines
// through line. Counter-identical to the per-line path.
//
//hot:entry batched writeback path, driven on pooled controllers
//alloc:free batched write path, 0 allocs/op by benchmark contract
func (c *Controller) LLCWriteRange(addr uint64, n uint64) {
	if n == 0 {
		return
	}
	if entries := c.Cache.DirectEntries(); entries != nil && c.policy.WriteAllocate {
		c.seqWriteRange(entries, addr, n)
	} else {
		c.walk(addr, n, true)
	}
	if c.sink != nil {
		c.maybeSample()
	}
}

// FlushAll writes every dirty line back to NVRAM and invalidates the
// cache, modeling an ADR-style flush or mode transition. Counter events
// are recorded for the writebacks. O(lines).
func (c *Controller) FlushAll() {
	c.Cache.ForEachDirty(func(addr uint64) {
		c.hist[flushWrite]++
		c.NVRAM.Write(addr)
	})
	c.Cache.Reset()
}
