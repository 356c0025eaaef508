// Multi-channel amplification experiment. The paper's platform
// interleaves 2LM traffic across 6 IMC channels per socket; the
// single-controller model aggregates them. This experiment replays the
// Table-I access scenarios both through one serial controller and
// through N single-channel controllers fed a line-interleaved split of
// the same stream, demonstrating (a) that the split preserves the
// serial model's counters exactly and (b) how evenly the 2LM
// amplification load spreads across channels.
//
// # Why the split is exact
//
// Channel split routes line address L to channel L mod N at the
// channel-local line L div N — how the socket's system address decoder
// interleaves consecutive lines across IMC channels. When N divides
// the serial controller's set count (always true for the Cascade Lake
// geometry, whose capacities carry the factor 6), serial set s lands
// on channel s mod N as local set s div N, bijectively, and a line's
// local tag equals its serial tag. Cache decisions (hit, clean/dirty
// miss, victim choice, LRU order, ownership bits) are purely per-set,
// so each channel reproduces the serial per-set decision sequences and
// the field-wise merge of the channel counters equals the serial
// counters. TestChannelSplitMatchesSerial asserts this over random
// streams.

package engine

import (
	"fmt"

	"twolm/internal/dram"
	"twolm/internal/fastdiv"
	"twolm/internal/imc"
	"twolm/internal/mem"
	"twolm/internal/nvram"
	"twolm/internal/platform"
	"twolm/internal/results"
	"twolm/internal/telemetry"
)

// MultiChannelConfig parameterizes the channel-split experiment.
type MultiChannelConfig struct {
	// Scale is the footprint divisor (power of two; default 8192).
	Scale uint64
	// Telemetry, when non-nil, receives the serial reference's counter
	// samples for every scenario, labeled with the scenario name and
	// sampled every sampleEvery demand lines.
	Telemetry telemetry.Sink
}

// sampleEvery is the telemetry sampling interval in demand lines.
const sampleEvery = 4096

// DefaultMultiChannelConfig returns the paper-geometry configuration.
func DefaultMultiChannelConfig() MultiChannelConfig {
	return MultiChannelConfig{Scale: 8192}
}

func (c MultiChannelConfig) withDefaults() MultiChannelConfig {
	d := DefaultMultiChannelConfig()
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	return c
}

// llcOp is one LLC-level request: a demand read or a writeback.
type llcOp struct {
	Write bool
	Addr  uint64
}

// mcScenario is one IMC-level workload of the experiment.
type mcScenario struct {
	name string
	ops  func(cacheLines uint64) []llcOp
}

// mcScenarios generates the Table-I regimes as LLC-level op streams.
// Addresses are line-granular over a region twice the DRAM cache, so
// the second half aliases the first in a direct-mapped cache.
func mcScenarios() []mcScenario {
	return []mcScenario{
		{"read miss (clean)", func(lines uint64) []llcOp {
			// One sequential pass over 2x the cache: every read misses
			// clean (nothing is ever dirty).
			ops := make([]llcOp, 0, 2*lines)
			for i := uint64(0); i < 2*lines; i++ {
				ops = append(ops, llcOp{Addr: i * mem.Line})
			}
			return ops
		}},
		{"write miss (dirty)", func(lines uint64) []llcOp {
			// Two NT-store passes: the first dirties the cache, the
			// second passes' aliasing writes miss dirty.
			ops := make([]llcOp, 0, 4*lines)
			for pass := 0; pass < 2; pass++ {
				for i := uint64(0); i < 2*lines; i++ {
					ops = append(ops, llcOp{Write: true, Addr: i * mem.Line})
				}
			}
			return ops
		}},
		{"rmw (ddo writeback)", func(lines uint64) []llcOp {
			// Read-for-ownership then writeback of a resident line: the
			// writeback takes the Dirty Data Optimization.
			ops := make([]llcOp, 0, 2*lines)
			for i := uint64(0); i < lines; i++ {
				ops = append(ops, llcOp{Addr: i * mem.Line}, llcOp{Write: true, Addr: i * mem.Line})
			}
			return ops
		}},
	}
}

// MultiChannel runs the experiment at the socket's channel count (six
// on Cascade Lake) and returns the result table. It errors if any
// scenario's merged channel counters diverge from the serial run —
// that equality is a correctness property, not a statistic.
func MultiChannel(cfg MultiChannelConfig) (*results.Table, error) {
	cfg = cfg.withDefaults()
	return multiChannel(cfg, platform.CascadeLake(1, cfg.Scale, 24).ChannelsPerSocket)
}

// multiChannel runs the experiment at any channel count; the tests pin
// it at 1 to 12 channels. A count that does not split the platform's
// DRAM cache into whole sets per channel, or its NVRAM into whole
// lines, is an error naming the count, raised before any scenario runs.
func multiChannel(cfg MultiChannelConfig, channels int) (*results.Table, error) {
	cfg = cfg.withDefaults()
	plat := platform.CascadeLake(1, cfg.Scale, 24)
	if err := plat.Validate(); err != nil {
		return nil, err
	}

	table := results.NewTable(
		fmt.Sprintf("Multi-channel 2LM amplification (%d line-interleaved channels)", channels),
		"scenario", "demand", "amplification", "counters_match", "channel_balance")

	for _, sc := range mcScenarios() {
		split, err := newChannelSplit(channels, plat.DRAMSize(), plat.NVRAMSize(), imc.HardwarePolicy())
		if err != nil {
			return nil, err
		}
		// The serial reference gets one DRAM channel per split channel,
		// so its samples carry one CAS slot per split channel. The imc
		// hook fires at range boundaries; one-line ranges sample per op.
		serial, err := newController(channels, plat.DRAMSize(), plat.NVRAMSize())
		if err != nil {
			return nil, err
		}
		serial.SetTelemetry(telemetry.WithLabel(cfg.Telemetry, sc.name), sampleEvery)
		for _, op := range sc.ops(plat.DRAMSize() / mem.Line) {
			if op.Write {
				serial.LLCWriteRange(op.Addr, 1)
			} else {
				serial.LLCReadRange(op.Addr, 1)
			}
			split.apply(op)
		}
		serial.FlushTelemetry()

		perChannel := split.counters()
		sctr, mctr := serial.Counters(), MergeCounters(perChannel...)
		if sctr != mctr {
			return nil, fmt.Errorf("engine: %s: channel counters diverge from serial:\n serial %v\n merged %v",
				sc.name, sctr, mctr)
		}
		table.AddRow(sc.name,
			fmt.Sprint(mctr.Demand()),
			fmt.Sprintf("%.3f", mctr.Amplification()),
			"yes",
			fmt.Sprintf("%.3f", channelBalance(perChannel)))
	}
	return table, nil
}

// newController assembles a controller over a DRAM cache and NVRAM
// space of the given sizes, both interleaved over `channels`.
func newController(channels int, dramBytes, nvramBytes uint64, opts ...imc.Option) (*imc.Controller, error) {
	d, err := dram.New(channels, dramBytes)
	if err != nil {
		return nil, err
	}
	nv, err := nvram.New(channels, nvramBytes)
	if err != nil {
		return nil, err
	}
	return imc.New(d, nv, opts...)
}

// channelSplit is N single-channel controllers over a line-interleaved
// address split, each owning 1/N of the DRAM cache and NVRAM space.
type channelSplit struct {
	ctrls []*imc.Controller
	n     fastdiv.Divisor
}

// checkSplit reports whether channels splits the capacities so that
// each channel's DRAM slice holds a whole number of policy-way sets and
// its NVRAM slice a whole number of lines, which is what makes the
// split counter-identical to a serial run.
func checkSplit(channels int, dramBytes, nvramBytes uint64, policy imc.Policy) error {
	if channels < 1 {
		return fmt.Errorf("engine: channel count %d must be positive", channels)
	}
	if policy.Ways < 1 {
		return fmt.Errorf("engine: policy ways %d must be >= 1", policy.Ways)
	}
	n := uint64(channels)
	// More channels than DRAM lines can hold no whole set, and would
	// overflow the split unit below. The divisibility checks go through
	// fastdiv because hotdiv keeps this package free of hardware divides.
	if dramBytes == 0 || n > dramBytes>>mem.LineShift || fastdiv.New(n*uint64(policy.Ways)*mem.Line).Mod(dramBytes) != 0 {
		return fmt.Errorf("engine: DRAM capacity %d must split into %d channels of whole %d-way sets",
			dramBytes, channels, policy.Ways)
	}
	if nvramBytes == 0 || fastdiv.New(n*mem.Line).Mod(nvramBytes) != 0 {
		return fmt.Errorf("engine: NVRAM capacity %d must split into %d channels of whole lines",
			nvramBytes, channels)
	}
	return nil
}

// newChannelSplit builds the split after checkSplit accepts it.
func newChannelSplit(channels int, dramBytes, nvramBytes uint64, policy imc.Policy) (*channelSplit, error) {
	if err := checkSplit(channels, dramBytes, nvramBytes, policy); err != nil {
		return nil, err
	}
	n := uint64(channels)
	s := &channelSplit{ctrls: make([]*imc.Controller, channels), n: fastdiv.New(n)}
	for i := range s.ctrls {
		ctrl, err := newController(1, dramBytes/n, nvramBytes/n, imc.WithPolicy(policy))
		if err != nil {
			return nil, fmt.Errorf("engine: channel %d: %w", i, err)
		}
		s.ctrls[i] = ctrl
	}
	return s, nil
}

// apply routes op to channel line mod N at the channel-local line
// line div N, keeping the sub-line offset.
func (s *channelSplit) apply(op llcOp) {
	q, r := s.n.DivMod(op.Addr >> mem.LineShift)
	local := q<<mem.LineShift | op.Addr&(mem.Line-1)
	if op.Write {
		s.ctrls[r].LLCWrite(local)
	} else {
		s.ctrls[r].LLCRead(local)
	}
}

// counters returns each channel's counters in channel order.
func (s *channelSplit) counters() []imc.Counters {
	out := make([]imc.Counters, len(s.ctrls))
	for i, c := range s.ctrls {
		out[i] = c.Counters()
	}
	return out
}

// channelBalance returns min/max per-channel demand — 1.0 is a
// perfectly even spread, the line-interleaved ideal for streaming
// workloads. cs holds at least one channel.
func channelBalance(cs []imc.Counters) float64 {
	lo, hi := cs[0].Demand(), cs[0].Demand()
	for _, c := range cs[1:] {
		lo, hi = min(lo, c.Demand()), max(hi, c.Demand())
	}
	if hi == 0 {
		return 0
	}
	return float64(lo) / float64(hi)
}
