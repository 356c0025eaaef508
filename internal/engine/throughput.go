// Simulator-throughput measurement: how many demand lines per second
// the simulator itself sustains. Counting is the whole cost model of
// this reproduction — every table and figure counts demand lines
// through core.System, per line, in folded ranges or in batches — so
// simulated-lines-per-second is the hardware speed axis of the
// ROADMAP's north star and the budget that bounds how large a
// footprint scale the experiments can afford. The measurement here
// backs the BenchmarkSimThroughput* benchmarks and the
// BENCH_throughput.json artifact cmd/repro emits, which together form
// the tracked perf trajectory baseline future PRs are measured against.
package engine

import (
	"fmt"
	"io"
	"time"

	"twolm/internal/core"
	"twolm/internal/lfsr"
	"twolm/internal/mem"
	"twolm/internal/platform"
	"twolm/internal/telemetry"
)

// ThroughputConfig parameterizes the throughput measurement.
type ThroughputConfig struct {
	// Scale is the footprint divisor of the measured system.
	Scale uint64
	// Passes is how many full passes over the region each measurement
	// times (after one untimed warm-up pass that primes the caches).
	Passes int
	// Seed seeds the LFSR for the random streams.
	Seed uint32
	// Telemetry, when non-nil, receives counter samples from every
	// measured system, labeled with the stream configuration's name
	// and sampled every SampleEvery demand lines.
	Telemetry telemetry.Sink
	// SampleEvery is the telemetry sampling interval in demand lines
	// (0 samples at every range boundary).
	SampleEvery uint64
}

// DefaultThroughputConfig returns the standard measurement: 1/8192
// scale (a 24 MiB DRAM cache, 48 MiB footprint) and three timed passes.
func DefaultThroughputConfig() ThroughputConfig {
	return ThroughputConfig{Scale: 8192, Passes: 3, Seed: 0x2B1A}
}

// ThroughputResult is one measured stream configuration.
//
// Stream configurations report lines/sec. Sweep configurations (whole
// design-space points executed per second by internal/sweep) report
// jobs/sec in JobsPerSec and keep LinesPerSec as the informational
// aggregate line rate; Rate picks the gated figure either way.
type ThroughputResult struct {
	Name        string  `json:"name"`
	Mode        string  `json:"mode"`
	Pattern     string  `json:"pattern"`
	Lines       uint64  `json:"lines"`
	Seconds     float64 `json:"seconds"`
	LinesPerSec float64 `json:"lines_per_sec"`
	JobsPerSec  float64 `json:"sweep_jobs_per_sec,omitempty"`
}

// Rate returns the configuration's regression-gated throughput figure:
// jobs/sec for sweep entries, lines/sec for stream entries.
func (r ThroughputResult) Rate() float64 {
	if r.JobsPerSec > 0 {
		return r.JobsPerSec
	}
	return r.LinesPerSec
}

// ThroughputReport is the serialized BENCH_throughput.json payload.
type ThroughputReport struct {
	Benchmark string             `json:"benchmark"`
	Scale     uint64             `json:"scale"`
	Passes    int                `json:"passes"`
	Results   []ThroughputResult `json:"results"`
}

// NewThroughputSystem builds a single-socket system in the given mode
// together with a measurement region twice the DRAM capacity — the
// miss-heavy regime of the paper's Figure 4, where the demand pipeline
// does the most work per line. In 1LM the region is NVRAM-backed so
// both device models stay on the path.
func NewThroughputSystem(mode core.Mode, scale uint64) (*core.System, mem.Region, error) {
	sys, err := core.New(core.Config{
		Platform: platform.CascadeLake(1, scale, 24),
		Mode:     mode,
	})
	if err != nil {
		return nil, mem.Region{}, err
	}
	size := 2 * sys.Platform().DRAMSize()
	var region mem.Region
	if mode == core.Mode1LM {
		region, err = sys.AddressSpace().AllocNVRAM(size)
	} else {
		region, err = sys.AddressSpace().Alloc(size)
	}
	if err != nil {
		return nil, mem.Region{}, err
	}
	return sys, region, nil
}

// SeqPass streams one sequential load pass plus one sequential store
// pass over region, exercising the read- and write-miss pipelines.
// Returns the number of demand lines simulated.
//
//hot:entry timed measurement loop; its cost IS the measured figure
//alloc:free the timed region must not allocate or the GC skews lines/sec
func SeqPass(sys *core.System, region mem.Region) uint64 {
	sys.LoadRange(region)
	sys.StoreRange(region)
	return 2 * region.Lines()
}

// RandPass drives one LFSR-random pass over region, touching every
// line exactly once with alternating loads and stores in pseudo-random
// order (the paper's KernelBenchmarks.jl iteration style). The pass
// goes through the system's batch builder, so the controller services
// it via chunked in-order dispatch; counters are byte-identical to the
// per-line reference (the `reference` build). Returns the number of
// demand lines simulated.
//
//hot:entry timed measurement loop; its cost IS the measured figure
//alloc:free the timed region must not allocate or the GC skews lines/sec
func RandPass(sys *core.System, region mem.Region, seed uint32) (uint64, error) {
	n := region.Lines()
	b := sys.Batch()
	st, err := lfsr.NewStream(n, seed)
	if err != nil {
		return 0, err
	}
	// Indices are consumed through a stack chunk instead of a callback
	// per index: the stream's skip test and the load/store alternation
	// are both even coin flips, and the buffer hop turns each from a
	// mispredicting branch into masked arithmetic.
	var buf [2048]uint32
	base := region.Base
	for {
		k, err := st.Fill(buf[:])
		if err != nil {
			return 0, err
		}
		if k == 0 {
			break
		}
		for _, v := range buf[:k] {
			idx := uint64(v)
			b.LoadOrStore(base+idx*mem.Line, idx)
		}
	}
	b.Flush()
	return n, nil
}

// MeasureThroughput measures simulator throughput for sequential and
// LFSR-random streams in both operating modes.
func MeasureThroughput(cfg ThroughputConfig) (*ThroughputReport, error) {
	if cfg.Scale == 0 {
		cfg = DefaultThroughputConfig()
	}
	if cfg.Passes < 1 {
		cfg.Passes = 1
	}
	report := &ThroughputReport{Benchmark: "SimThroughput", Scale: cfg.Scale, Passes: cfg.Passes}
	for _, mode := range []core.Mode{core.Mode2LM, core.Mode1LM} {
		for _, random := range []bool{false, true} {
			sys, region, err := NewThroughputSystem(mode, cfg.Scale)
			if err != nil {
				return nil, err
			}
			pattern := "sequential"
			if random {
				pattern = "lfsr-random"
			}
			name := fmt.Sprintf("%s-%s", pattern, mode)
			// Untimed warm-up pass primes the DRAM cache, mirroring the
			// paper's measurement procedure. Telemetry attaches after
			// the warm-up so the recorded series covers only the
			// measured passes.
			SeqPass(sys, region)
			if cfg.Telemetry != nil {
				sys.SetTelemetry(telemetry.WithLabel(cfg.Telemetry, name), cfg.SampleEvery)
			}
			var lines uint64
			//lint:ignore detrange lines-per-second throughput measures the simulator's own wall clock by design
			start := time.Now()
			for p := 0; p < cfg.Passes; p++ {
				if random {
					n, err := RandPass(sys, region, cfg.Seed+uint32(p))
					if err != nil {
						return nil, err
					}
					lines += n
				} else {
					lines += SeqPass(sys, region)
				}
				if cfg.Telemetry != nil {
					// Close the pass as a sync interval so the simulated
					// clock advances and the recorded trace carries
					// per-pass bandwidth, not just demand-line counts.
					sys.Sync(fmt.Sprintf("%s pass %d", name, p+1), 0)
				}
			}
			sec := time.Since(start).Seconds()
			if cfg.Telemetry != nil {
				sys.FlushTelemetry()
			}
			r := ThroughputResult{
				Name:    name,
				Mode:    mode.String(),
				Pattern: pattern,
				Lines:   lines,
				Seconds: sec,
			}
			if sec > 0 {
				r.LinesPerSec = float64(lines) / sec
			}
			report.Results = append(report.Results, r)
		}
	}
	return report, nil
}

// WriteThroughputJSON serializes the report as indented JSON via the
// repository's shared artifact encoder (byte-identical to the bespoke
// encoder this method carried before internal/telemetry existed).
func (r *ThroughputReport) WriteThroughputJSON(w io.Writer) error {
	return telemetry.EncodeJSON(w, r)
}
