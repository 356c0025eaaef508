// Package core is the primary contribution of this library: a
// heterogeneous-memory system simulator that lets workloads observe the
// behavior of Intel's Cascade Lake NVRAM platform in both of its
// operating modes:
//
//   - Mode2LM ("memory mode"): DRAM is a hardware-managed direct-mapped
//     cache in front of NVRAM (internal/imc), the configuration the
//     paper argues against.
//   - Mode1LM ("app-direct mode"): DRAM and NVRAM are separate pools
//     addressed directly, the substrate for software-managed data
//     movement (AutoTM, Sage).
//
// Workloads drive the System with Load / Store / StoreNT operations (or
// their Range forms, which are much faster for streaming access). The
// System filters them through a small last-level-cache model (so that
// standard stores produce RFOs and *delayed* writebacks, as on real
// hardware — the origin of the Dirty Data Optimization), forwards the
// resulting LLC reads and writes to the memory behind the LLC, and
// converts the exact transaction counts into elapsed time with the
// analytic bandwidth model at every Sync point.
//
// Both modes share that front end. They differ only in the memory
// interface behind it (flat.go): the 2LM imc.Controller, or the 1LM
// flatMemory that addresses the two pools directly.
//
// Counting is exact; time is modeled. See DESIGN.md for the validation
// of both halves against the paper.
package core

import (
	"fmt"

	"twolm/internal/bwmodel"
	"twolm/internal/cache"
	"twolm/internal/dram"
	"twolm/internal/imc"
	"twolm/internal/mem"
	"twolm/internal/nvram"
	"twolm/internal/perfcounter"
	"twolm/internal/platform"
	"twolm/internal/telemetry"
)

// Mode selects the platform memory mode.
type Mode uint8

const (
	// Mode2LM is memory mode: DRAM caches NVRAM transparently.
	Mode2LM Mode = iota
	// Mode1LM is app-direct mode: DRAM and NVRAM are explicit pools.
	Mode1LM
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Mode1LM {
		return "1LM"
	}
	return "2LM"
}

// LLCBytes is the unscaled last-level cache capacity of one socket of
// the paper's test platform (33 MB of non-inclusive L3).
const LLCBytes = 33 * 1024 * 1024

// nvramMixOverlap is the fraction of the serialized read+write service
// time a mixed NVRAM stream cannot hide (1.0 would mean no overlap).
const nvramMixOverlap = 0.7

// Config assembles a System.
type Config struct {
	// Platform is the machine description (capacities, scale, threads).
	Platform platform.Config
	// Mode selects 1LM or 2LM operation.
	Mode Mode
	// Model supplies bandwidths; nil selects the Cascade Lake model.
	Model *bwmodel.Model
	// LLCBytes overrides the unscaled LLC capacity; 0 selects LLCBytes.
	LLCBytes uint64
	// Policy overrides the 2LM controller policy; nil selects the
	// hardware behavior (direct mapped, allocate on every miss, DDO
	// enabled). Only meaningful in Mode2LM.
	Policy *imc.Policy
}

// System is the simulated machine. It is not safe for concurrent use;
// thread-level parallelism is a *model parameter* (SetThreads), keeping
// simulations deterministic.
type System struct {
	cfg   Config
	mode  Mode
	model *bwmodel.Model
	space *platform.AddressSpace

	// mc is the memory behind the LLC: ctrl in 2LM, flat in 1LM (the
	// other is nil). Both keep imc.Counters for uniform reporting.
	mc       memory
	ctrl     *imc.Controller
	flat     *flatMemory
	dramMod  *dram.Module
	nvramMod *nvram.Module

	// llc models the on-chip cache in front of the IMC: direct mapped,
	// line granular. It exists to (a) coalesce repeated touches and
	// (b) delay standard-store writebacks, which is what enables DDO.
	llc *cache.DirectMapped

	// Traffic descriptors for the bandwidth model.
	pattern mem.Pattern
	gran    int
	threads int
	streams int
	mlp     float64

	clock       float64
	demandBytes uint64 // total CPU-visible bytes touched
	lastCtr     imc.Counters
	lastDemand  uint64
	instr       uint64
	series      perfcounter.Series

	// DMA engine state: transfers bypass the CPU and the on-chip
	// cache; their device traffic counts normally but they cost no
	// issue bandwidth, and their engine occupancy is a separate
	// resource that overlaps compute. dmaNV tracks the NVRAM-side line
	// count so the CPU-latency estimate can exclude engine traffic.
	dmaBW    float64
	dmaBytes uint64
	dmaNV    uint64
	lastDMA  uint64
	lastDNV  uint64

	// tap observes the demand stream (trace recording).
	tap func(op TapOp, addr uint64)

	// batch is the reusable bulk-dispatch builder (scatter.go).
	batch *Batch

	// tel samples into an optional sink at demand-line boundaries from
	// the system-level Range entry points (so samples carry the
	// simulated clock), plus a forced labeled sample at every Sync.
	tel telemetry.Sampler
}

// New builds a System from the configuration.
func New(cfg Config) (*System, error) {
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	model := cfg.Model
	if model == nil {
		model = bwmodel.NewCascadeLake(cfg.Platform.Sockets)
	}
	dramMod, err := dram.New(cfg.Platform.Channels(), cfg.Platform.DRAMSize())
	if err != nil {
		return nil, err
	}
	nvramMod, err := nvram.New(cfg.Platform.Channels(), cfg.Platform.NVRAMSize())
	if err != nil {
		return nil, err
	}
	llcCap := cfg.LLCBytes
	if llcCap == 0 {
		llcCap = LLCBytes * uint64(cfg.Platform.Sockets)
	}
	llcCap = mem.AlignUp(llcCap/cfg.Platform.Scale, mem.Line)
	if llcCap < mem.Line {
		llcCap = mem.Line
	}
	llc, err := cache.New(llcCap)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:      cfg,
		mode:     cfg.Mode,
		model:    model,
		space:    platform.NewAddressSpace(cfg.Platform, cfg.Mode == Mode2LM),
		dramMod:  dramMod,
		nvramMod: nvramMod,
		llc:      llc,
		pattern:  mem.Sequential,
		gran:     mem.Line,
		threads:  cfg.Platform.Threads,
		streams:  1,
	}
	if cfg.Mode == Mode2LM {
		policy := imc.HardwarePolicy()
		if cfg.Policy != nil {
			policy = *cfg.Policy
		}
		// The controller never gets a sink: Batch.Flush relies on that
		// (scatter.go).
		if s.ctrl, err = imc.New(dramMod, nvramMod, imc.WithPolicy(policy)); err != nil {
			return nil, err
		}
		s.mc = s.ctrl
	} else {
		s.flat = &flatMemory{dram: dramMod, nvram: nvramMod, boundary: s.space.DRAMBoundary()}
		s.mc = s.flat
	}
	return s, nil
}

// Mode returns the operating mode.
func (s *System) Mode() Mode { return s.mode }

// Platform returns the machine description.
func (s *System) Platform() platform.Config { return s.cfg.Platform }

// AddressSpace returns the system's allocator.
func (s *System) AddressSpace() *platform.AddressSpace { return s.space }

// Controller returns the 2LM memory controller, or nil in 1LM mode.
func (s *System) Controller() *imc.Controller { return s.ctrl }

// DRAM returns the DRAM module, for per-channel counter inspection.
func (s *System) DRAM() *dram.Module { return s.dramMod }

// NVRAM returns the NVRAM module, for media counter inspection.
func (s *System) NVRAM() *nvram.Module { return s.nvramMod }

// Model returns the bandwidth model in use.
func (s *System) Model() *bwmodel.Model { return s.model }

// SetTraffic declares the spatial pattern and access granularity (in
// bytes) of the upcoming traffic, for the bandwidth model.
func (s *System) SetTraffic(p mem.Pattern, gran int) {
	s.pattern = p
	if gran <= 0 {
		gran = mem.Line
	}
	s.gran = gran
}

// SetStreams declares how many concurrent address streams make up the
// upcoming traffic (distinct tensors or arrays being walked at once).
// Beyond two streams, sequential NVRAM traffic degrades toward random
// behavior as the on-DIMM combining buffers thrash.
func (s *System) SetStreams(n int) {
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	s.streams = n
}

// SetMLP overrides the per-thread memory-level parallelism assumed by
// the CPU issue bound. 0 restores the hardware limit (line-fill
// buffers, boosted by prefetch for sequential streams). Workloads with
// dependent access chains — offset, then edge, then property — sustain
// only 1-2 outstanding misses per thread.
func (s *System) SetMLP(mlp float64) {
	if mlp < 0 {
		mlp = 0
	}
	s.mlp = mlp
}

// SetThreads sets the modeled worker-thread count.
func (s *System) SetThreads(n int) {
	if n < 1 {
		n = 1
	}
	s.threads = n
}

// Threads returns the modeled worker-thread count.
func (s *System) Threads() int { return s.threads }

// TapOp identifies a demand operation observed by a tap.
type TapOp uint8

const (
	// TapLoad is a demand load.
	TapLoad TapOp = iota
	// TapStore is a standard store.
	TapStore
	// TapStoreNT is a nontemporal store.
	TapStoreNT
	// TapRMW is a read-modify-write.
	TapRMW
)

// SetTap installs an observer invoked on every demand operation before
// it is simulated (nil removes it). Taps see the operation stream the
// workload generates — internal/trace uses this to record replayable
// traces.
func (s *System) SetTap(tap func(op TapOp, addr uint64)) { s.tap = tap }

// --- demand path -----------------------------------------------------

// llcTouch simulates bringing addr into the on-chip cache, evicting and
// writing back the victim if dirty. dirty marks the new line's state
// (false for loads, true for stores and RMW).
func (s *System) llcTouch(addr uint64, dirty bool) {
	set, tag, res := s.llc.Lookup(addr)
	if res == cache.Hit {
		if dirty {
			s.llc.MarkDirty(set)
		}
		return // on-chip hit: no memory traffic
	}
	if res == cache.MissDirty {
		if victim, ok := s.llc.VictimAddr(set); ok {
			s.mc.LLCWrite(victim)
		}
	}
	s.mc.LLCRead(addr)
	s.llc.Insert(set, tag)
	if dirty {
		s.llc.MarkDirty(set)
	}
}

// Load simulates a demand load of the line containing addr.
func (s *System) Load(addr uint64) {
	if s.tap != nil {
		s.tap(TapLoad, addr)
	}
	s.demandBytes += mem.Line
	s.llcTouch(addr, false)
}

// Store simulates a standard store to the line containing addr: an RFO
// read (unless the line is already on chip) and a delayed writeback when
// the line is eventually evicted.
func (s *System) Store(addr uint64) {
	if s.tap != nil {
		s.tap(TapStore, addr)
	}
	s.demandBytes += mem.Line
	s.llcTouch(addr, true)
}

// RMW simulates a load followed by a store to the same line (one RFO,
// one delayed writeback). Demand bytes count both halves, matching the
// paper's effective-bandwidth accounting for read-modify-write kernels.
func (s *System) RMW(addr uint64) {
	if s.tap != nil {
		s.tap(TapRMW, addr)
	}
	s.demandBytes += 2 * mem.Line
	s.llcTouch(addr, true)
}

// StoreNT simulates a nontemporal store: it bypasses the on-chip cache
// (invalidating any copy) and reaches the IMC directly as an LLC write.
func (s *System) StoreNT(addr uint64) {
	if s.tap != nil {
		s.tap(TapStoreNT, addr)
	}
	s.demandBytes += mem.Line
	set, _, res := s.llc.Lookup(addr)
	if res == cache.Hit {
		// NT stores invalidate a cached copy without writing it back.
		s.llc.Invalidate(set)
	}
	s.mc.LLCWrite(addr)
}

// The Range forms below are the batched fast path of the demand
// pipeline: for a sequential range with no tap installed they hoist the
// tap check out of the loop, accumulate the demand-byte counter once
// per batch instead of once per line, and (for nontemporal stores)
// hand the whole run to the memory's range entry point. Whenever a
// tap is installed they fall back to the per-line calls so the tap
// observes every operation; counter results are byte-identical either
// way (the differential tests in fastpath_test.go pin this).

// rangeTouch is llcTouch unrolled over every line of r. Consecutive
// lines map to consecutive on-chip sets, so the set/tag pair advances
// incrementally — one division at the range start instead of one per
// line. The per-line outcomes are identical to calling llcTouch on
// each line in ascending order.
func (s *System) rangeTouch(r mem.Region, dirty bool) {
	sets := s.llc.Sets()
	set, tag := s.llc.Index(r.Base)
	end := r.End()
	for a := r.Base; a < end; a += mem.Line {
		res := s.llc.LookupAt(set, tag)
		if res == cache.Hit {
			if dirty {
				s.llc.MarkDirty(set)
			}
		} else {
			if res == cache.MissDirty {
				if victim, ok := s.llc.VictimAddr(set); ok {
					s.mc.LLCWrite(victim)
				}
			}
			s.mc.LLCRead(a)
			s.llc.Insert(set, tag)
			if dirty {
				s.llc.MarkDirty(set)
			}
		}
		set++
		if set == sets {
			set, tag = 0, tag+1
		}
	}
}

// seqRange is rangeTouch with the on-chip steady state folded closed.
// A sequential walk saturates the direct-mapped LLC after at most two
// set wraps: past line 2K (K = LLC sets) every line misses against this
// range's own install of line i-K — clean for loads, dirty for stores —
// so the remainder needs no per-line on-chip probes. Loads stream the
// remainder through the memory's batched read path; stores stream
// the interleaved eviction/demand pair through LLCWritebackReadRange
// (the victim of line i is exactly line i-K, a sequential stream K
// lines behind). The LLC's final state — the last min(m, K) lines
// resident — commits as a bulk stamp. Counter results are byte-identical
// to rangeTouch (fastpath_test.go pins this).
func (s *System) seqRange(r mem.Region, dirty bool) {
	n := r.Lines()
	ks := s.llc.Sets()
	prefix := min(n, 2*ks)
	s.rangeTouch(mem.Region{Base: r.Base, Size: prefix * mem.Line}, dirty)
	m := n - prefix
	if m == 0 {
		return
	}
	base := r.Base + prefix*mem.Line
	if dirty {
		s.mc.LLCWritebackReadRange(base-ks*mem.Line, base, m)
	} else {
		s.mc.LLCReadRange(base, m)
	}
	flags := cache.EntryValid
	if dirty {
		flags |= cache.EntryDirty
	}
	w := min(m, ks)
	ws, wt := s.llc.Index(base + (m-w)*mem.Line)
	s.llc.StampSeqRun(ws, wt, w, flags)
}

// LoadRange streams demand loads over every line of r.
func (s *System) LoadRange(r mem.Region) {
	if s.tap != nil {
		for a := r.Base; a < r.End(); a += mem.Line {
			s.Load(a)
		}
	} else {
		s.seqRange(r, false)
		s.demandBytes += mem.Line * r.Lines()
	}
	if s.tel.On() {
		s.maybeSample()
	}
}

// StoreRange streams standard stores over every line of r.
func (s *System) StoreRange(r mem.Region) {
	if s.tap != nil {
		for a := r.Base; a < r.End(); a += mem.Line {
			s.Store(a)
		}
	} else {
		s.seqRange(r, true)
		s.demandBytes += mem.Line * r.Lines()
	}
	if s.tel.On() {
		s.maybeSample()
	}
}

// RMWRange streams read-modify-writes over every line of r.
func (s *System) RMWRange(r mem.Region) {
	if s.tap != nil {
		for a := r.Base; a < r.End(); a += mem.Line {
			s.RMW(a)
		}
	} else {
		s.seqRange(r, true)
		s.demandBytes += 2 * mem.Line * r.Lines()
	}
	if s.tel.On() {
		s.maybeSample()
	}
}

// StoreNTRange streams nontemporal stores over every line of r. NT
// stores bypass the on-chip cache, so with no tap installed the whole
// run reaches the memory system as one consecutive batch: the LLC
// invalidation sweep happens first (it generates no traffic), then the
// memory services the range through its batched entry point.
func (s *System) StoreNTRange(r mem.Region) {
	if s.tap != nil {
		for a := r.Base; a < r.End(); a += mem.Line {
			s.StoreNT(a)
		}
		if s.tel.On() {
			s.maybeSample()
		}
		return
	}
	sets := s.llc.Sets()
	set, tag := s.llc.Index(r.Base)
	end := r.End()
	for a := r.Base; a < end; a += mem.Line {
		if s.llc.LookupAt(set, tag) == cache.Hit {
			s.llc.Invalidate(set)
		}
		set++
		if set == sets {
			set, tag = 0, tag+1
		}
	}
	s.mc.LLCWriteRange(r.Base, r.Lines())
	s.demandBytes += mem.Line * r.Lines()
	if s.tel.On() {
		s.maybeSample()
	}
}

// SetDMABandwidth configures the copy-engine ceiling in bytes/s for
// DMACopy transfers (0 = engine disabled; transfers are then limited
// only by the devices). The paper's discussion (Section VII-B) notes
// that current DMA engines are built for I/O rates; modeling the
// ceiling lets the co-design experiments compare generations.
func (s *System) SetDMABandwidth(bw float64) {
	if bw < 0 {
		bw = 0
	}
	s.dmaBW = bw
}

// DMACopy models an asynchronous copy-engine transfer of src to dst
// (equal sizes; dst is truncated or zero-padded to src's length at the
// model's line granularity — both regions are streamed whole). The
// transfer reads and writes the devices directly: no RFOs, no on-chip
// cache, no CPU issue cost. Its time overlaps compute and demand
// traffic, surfacing only as device busy time plus the engine's own
// occupancy.
//
// In 2LM mode a copy engine would sit behind the same DRAM cache as
// the CPU, defeating the point; DMACopy therefore drives the devices
// through the 1LM path and is intended for app-direct systems.
func (s *System) DMACopy(src, dst mem.Region) {
	srcLines := (src.Size + mem.Line - 1) / mem.Line
	if s.mode == Mode2LM {
		// Behind the cache: the engine's streams reach the controller
		// as consecutive LLC-level reads and writes, serviced batched.
		s.mc.LLCReadRange(src.Base, srcLines)
		s.mc.LLCWriteRange(dst.Base, srcLines)
	} else {
		// App-direct: the engine drives the devices without passing the
		// LLC, so its lines count as device traffic but not demand.
		s.dmaNV += s.flat.readRun(src.Base, srcLines)
		s.dmaNV += s.flat.writeRun(dst.Base, srcLines)
	}
	s.dmaBytes += 2 * src.Size
	if s.tel.On() {
		s.maybeSample()
	}
}

// DrainLLC writes back every dirty line held in the on-chip cache
// model. Call at kernel boundaries so deferred writebacks are charged
// to the workload that produced them.
func (s *System) DrainLLC() {
	sets := s.llc.Sets()
	for set := uint64(0); set < sets; set++ {
		if s.llc.IsDirty(set) {
			if victim, ok := s.llc.VictimAddr(set); ok {
				s.mc.LLCWrite(victim)
			}
		}
	}
	s.llc.Reset()
}

// --- statistics and time ---------------------------------------------

// Counters returns the cumulative counters of the memory behind the LLC.
func (s *System) Counters() imc.Counters { return s.mc.Counters() }

// DemandBytes returns total CPU-visible bytes touched.
func (s *System) DemandBytes() uint64 { return s.demandBytes }

// AddInstructions credits n retired instructions to the current
// interval (for the MIPS trace of the paper's Figure 5a).
func (s *System) AddInstructions(n uint64) { s.instr += n }

// Clock returns the simulated elapsed time in seconds.
func (s *System) Clock() float64 { return s.clock }

// Series returns the sampled counter time series.
func (s *System) Series() *perfcounter.Series { return &s.series }

// SetTelemetry attaches (or, with a nil sink, detaches) a telemetry
// sink sampled every `every` demand lines at the Range entry points.
// Sync additionally force-records a labeled sample at every interval
// boundary regardless of the demand clock.
func (s *System) SetTelemetry(sink telemetry.Sink, every uint64) {
	s.tel.Attach(sink, every, s.Counters().Demand())
}

// Snapshot implements telemetry.Source: the system counters plus the
// simulated clock and per-channel DRAM CAS counts. Media counters are
// absent, as on the controller (see imc.Controller.Snapshot); use
// NVRAM().Snapshot for media-granularity observation.
func (s *System) Snapshot() telemetry.Sample {
	sample := s.Counters().Sample(s.dramMod)
	sample.Clock = s.clock
	return sample
}

// maybeSample records a sample if the demand clock crossed the next
// sampling boundary. Callers have already checked tel.On.
func (s *System) maybeSample() {
	if s.tel.Due(s.Counters().Demand()) {
		s.recordSample("")
	}
}

// recordSample snapshots the system and hands the sample to the sink.
// The snapshot happens behind this boundary so the per-line paths that
// call maybeSample never see the allocation.
//
//alloc:cold telemetry samples fire once per sampling interval, not per line; the snapshot copies amortize to ~0 allocs/op
func (s *System) recordSample(label string) {
	sample := s.Snapshot()
	sample.Label = label
	s.tel.Emit(sample)
}

// FlushTelemetry records a final sample for the partial tail interval
// if demand advanced past the last recorded sample (or none was
// recorded yet). No-op without a sink.
func (s *System) FlushTelemetry() {
	if s.tel.Pending(s.Counters().Demand()) {
		s.recordSample("")
	}
}

// nvramPattern maps the demand pattern onto the pattern the NVRAM
// devices observe. Behind the 2LM miss handler every NVRAM request is
// a 64 B line; per-thread sequential streams interleave at the IMC,
// and random demand keeps its cluster size (a 512 B random demand
// touch produces eight consecutive line fills, which still merge at
// the media).
func (s *System) nvramPattern() (mem.Pattern, int) {
	if s.mode == Mode2LM {
		if s.pattern == mem.Sequential {
			return mem.InterleavedSeq, mem.Line
		}
		return mem.Random, s.gran
	}
	return s.pattern, s.gran
}

// avgDemandLatencyNS estimates the mean service latency of a demand
// request in the interval, for the CPU issue bound.
func (s *System) avgDemandLatencyNS(d imc.Counters) float64 {
	demand := d.Demand()
	if demand == 0 {
		return s.model.DRAM.ReadLatencyNS
	}
	if s.mode == Mode2LM {
		// Every request first touches DRAM; misses add an NVRAM read.
		missFrac := float64(d.NVRAMRead) / float64(demand)
		return s.model.DRAM.ReadLatencyNS + missFrac*s.model.NVRAM.ReadLatencyNS
	}
	nvLines := d.NVRAMRead + d.NVRAMWrite
	// Exclude copy-engine traffic: the CPU never waits on it.
	if dmaNV := s.dmaNV - s.lastDNV; nvLines > dmaNV {
		nvLines -= dmaNV
	} else {
		nvLines = 0
	}
	nvFrac := float64(nvLines) / float64(demand)
	if nvFrac > 1 {
		nvFrac = 1
	}
	return (1-nvFrac)*s.model.DRAM.ReadLatencyNS + nvFrac*s.model.NVRAM.ReadLatencyNS
}

// Sync closes the current interval: it computes the interval's elapsed
// time from the traffic generated since the previous Sync (overlapped
// with computeSeconds of CPU work), advances the clock, and records a
// sample labeled label. It returns the sample.
//
// Interval time is the maximum busy time over the system's resources:
//
//	DRAM channels:  readBytes/readBW + writeBytes/writeBW
//	NVRAM DIMMs:    readBytes/readBW + writeBytes/writeBW
//	CPU issue:      demandBytes / issueBW(latency)
//	CPU compute:    computeSeconds
func (s *System) Sync(label string, computeSeconds float64) perfcounter.Sample {
	ctr := s.Counters()
	d := ctr.Sub(s.lastCtr)
	demand := s.demandBytes - s.lastDemand

	nvPat, nvGran := s.nvramPattern()
	dramGran := s.gran
	if s.mode == Mode2LM {
		dramGran = mem.Line
	}

	var dramTime, nvramTime, cpuTime float64
	if d.DRAMRead > 0 {
		dramTime += float64(d.DRAMRead*mem.Line) / s.model.DRAMReadBW(s.pattern, dramGran, s.threads)
	}
	if d.DRAMWrite > 0 {
		dramTime += float64(d.DRAMWrite*mem.Line) / s.model.DRAMWriteBW(s.pattern, dramGran, s.threads)
	}
	if d.NVRAMRead > 0 || d.NVRAMWrite > 0 {
		// In 2LM the miss handler issues NVRAM traffic with the IMC's
		// own queue depth; in 1LM the CPU threads issue it directly.
		nvReadBW := s.model.NVRAMReadBW(nvPat, nvGran, s.threads, s.streams)
		nvWriteBW := s.model.NVRAMWriteBW(nvPat, nvGran, s.threads, s.streams)
		if s.mode == Mode2LM {
			nvReadBW = s.model.NVRAMReadBW2LM(nvPat, nvGran, s.streams)
			nvWriteBW = s.model.NVRAMWriteBW2LM(nvPat, nvGran, s.threads, s.streams)
		}
		var rT, wT float64
		if d.NVRAMRead > 0 {
			rT = float64(d.NVRAMRead*mem.Line) / nvReadBW
		}
		if d.NVRAMWrite > 0 {
			wT = float64(d.NVRAMWrite*mem.Line) / nvWriteBW
		}
		// Optane DIMMs overlap reads with writes partially: mixed
		// streams are bounded by the slower direction, with a floor of
		// nvramMixOverlap times the serialized time. This matches the
		// paper's Figure 4b, where ~8 GB/s of miss-handler write-backs
		// proceed alongside an equal rate of fills. The overlap shrinks
		// to nothing as more address streams contend for the DIMM's
		// buffers.
		overlap := nvramMixOverlap
		if s.streams > 2 {
			t := float64(s.streams-2) / 2
			if t > 1 {
				t = 1
			}
			overlap += (1 - nvramMixOverlap) * t
		}
		nvramTime = max4(rT, wT, overlap*(rT+wT), 0)
	}
	if demand > 0 {
		lat := s.avgDemandLatencyNS(d)
		cpuTime = float64(demand) / s.model.DemandIssueBW(s.pattern, s.threads, lat, s.mlp)
	}

	// Copy-engine occupancy: a separate resource overlapping compute
	// and demand traffic, bounded by the engine's own ceiling.
	var dmaTime float64
	if moved := s.dmaBytes - s.lastDMA; moved > 0 && s.dmaBW > 0 {
		dmaTime = float64(moved) / s.dmaBW
	}

	memTime := dramTime
	if nvramTime > memTime {
		memTime = nvramTime
	}
	if s.mode == Mode2LM && s.streams > 2 && nvramTime > 0 {
		// IMC pipeline congestion: when many streams force NVRAM
		// write-queue pressure, DRAM requests queue behind the same
		// controller and the two busy times stop overlapping.
		memTime = dramTime + nvramTime
	}
	dt := max4(memTime, cpuTime, computeSeconds, dmaTime)
	s.clock += dt

	sample := perfcounter.Sample{
		Time:  s.clock,
		Dur:   dt,
		Delta: d,
		Instr: s.instr,
		Label: label,
	}
	s.series.Append(sample)
	s.lastCtr = ctr
	s.lastDemand = s.demandBytes
	s.lastDMA = s.dmaBytes
	s.lastDNV = s.dmaNV
	s.instr = 0
	if s.tel.On() {
		// Interval boundaries are always worth a sample: record one
		// carrying the interval label, regardless of the demand clock.
		s.recordSample(label)
	}
	return sample
}

func max4(a, b, c, d float64) float64 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	if d > m {
		m = d
	}
	return m
}

// EffectiveBW returns the application-visible bandwidth so far in
// bytes/s: demand bytes over elapsed time — the paper's "effective"
// bar, "computed by wall clock time and data accessed".
func (s *System) EffectiveBW() float64 {
	if s.clock <= 0 {
		return 0
	}
	return float64(s.demandBytes) / s.clock
}

// ResetStats zeroes counters, clock, demand accounting and the sample
// series, preserving cache contents — the paper's procedure of priming
// the DRAM cache and then measuring.
func (s *System) ResetStats() {
	s.mc.ResetCounters()
	s.clock = 0
	s.demandBytes = 0
	s.lastCtr = imc.Counters{}
	s.lastDemand = 0
	s.instr = 0
	s.dmaBytes = 0
	s.dmaNV = 0
	s.lastDMA = 0
	s.lastDNV = 0
	s.series = perfcounter.Series{}
	// The demand clock rewound to zero; restart the sampling phase.
	s.tel.Rewind()
}

// String summarizes the system configuration.
func (s *System) String() string {
	p := s.cfg.Platform
	return fmt.Sprintf("%s system: %d socket(s), %s DRAM, %s NVRAM (scale 1/%d, %d threads)",
		s.mode, p.Sockets, mem.FormatBytes(p.DRAMSize()), mem.FormatBytes(p.NVRAMSize()),
		p.Scale, s.threads)
}
