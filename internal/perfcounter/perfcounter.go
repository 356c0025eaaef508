// Package perfcounter provides time-series sampling of the simulated
// uncore counters — the software analogue of the paper's methodology of
// reading the IMC performance counters at intervals during workload
// execution and correlating them with kernel timestamps.
package perfcounter

import (
	"fmt"
	"io"
	"slices"

	"twolm/internal/imc"
)

// Sample is one observation: the simulated time at which the counters
// were read and the counter deltas since the previous sample, plus an
// optional label (e.g. the compute kernel executing in the interval).
type Sample struct {
	// Time is the simulated wall-clock time in seconds at the end of
	// the interval.
	Time float64
	// Dur is the interval length in seconds.
	Dur float64
	// Delta holds the counter increments during the interval.
	Delta imc.Counters
	// Instr is the number of instructions the compute model retired in
	// the interval (for the paper's Figure 5a MIPS plot).
	Instr uint64
	// Label annotates the interval (kernel name, phase, ...).
	Label string
}

// MIPS returns the interval's retired-instruction rate in millions of
// instructions per second.
func (s Sample) MIPS() float64 {
	if s.Dur <= 0 {
		return 0
	}
	return float64(s.Instr) / s.Dur / 1e6
}

// DRAMReadBW returns the interval's DRAM read bandwidth in bytes/s.
func (s Sample) DRAMReadBW() float64 { return bytesPerSec(s.Delta.DRAMRead, s.Dur) }

// DRAMWriteBW returns the interval's DRAM write bandwidth in bytes/s.
func (s Sample) DRAMWriteBW() float64 { return bytesPerSec(s.Delta.DRAMWrite, s.Dur) }

// NVRAMReadBW returns the interval's NVRAM read bandwidth in bytes/s.
func (s Sample) NVRAMReadBW() float64 { return bytesPerSec(s.Delta.NVRAMRead, s.Dur) }

// NVRAMWriteBW returns the interval's NVRAM write bandwidth in bytes/s.
func (s Sample) NVRAMWriteBW() float64 { return bytesPerSec(s.Delta.NVRAMWrite, s.Dur) }

func bytesPerSec(lines uint64, dur float64) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(lines*64) / dur
}

// Series is an append-only sequence of samples.
type Series struct {
	samples []Sample
}

// Append records one sample.
func (ts *Series) Append(s Sample) { ts.samples = append(ts.samples, s) }

// Samples returns the recorded samples (shared backing array; callers
// must not mutate).
func (ts *Series) Samples() []Sample { return ts.samples }

// Since returns a new series holding a copy of the samples from index
// i on. It shares no memory with ts, so later appends to ts leave it
// unchanged and holding it keeps nothing else of ts's owner alive.
func (ts *Series) Since(i int) *Series {
	return &Series{samples: slices.Clone(ts.samples[i:])}
}

// Len returns the number of samples.
func (ts *Series) Len() int { return len(ts.samples) }

// Total returns the field-wise sum of all sample deltas.
func (ts *Series) Total() imc.Counters {
	var total imc.Counters
	for _, s := range ts.samples {
		total = total.Add(s.Delta)
	}
	return total
}

// Duration returns the time covered by the series in seconds.
func (ts *Series) Duration() float64 {
	var d float64
	for _, s := range ts.samples {
		d += s.Dur
	}
	return d
}

// Rebin aggregates the series into bins of the given width in seconds,
// for rendering long traces at a readable resolution (the paper's
// Figure 10 uses a 2.5 s sliding average for the same reason).
func (ts *Series) Rebin(width float64) *Series {
	if width <= 0 || len(ts.samples) == 0 {
		return ts
	}
	out := &Series{}
	var acc Sample
	binEnd := ts.samples[0].Time - ts.samples[0].Dur + width
	for _, s := range ts.samples {
		acc.Delta = acc.Delta.Add(s.Delta)
		acc.Dur += s.Dur
		acc.Instr += s.Instr
		acc.Time = s.Time
		if acc.Label == "" {
			acc.Label = s.Label
		}
		if s.Time >= binEnd {
			out.Append(acc)
			acc = Sample{}
			binEnd += width
		}
	}
	if acc.Dur > 0 {
		out.Append(acc)
	}
	return out
}

// WriteCSV emits the series with one row per sample: time, duration,
// bandwidths in GB/s, tag events, and label. The format matches what
// the paper's figures plot.
func (ts *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time_s,dur_s,dram_read_gbs,dram_write_gbs,nvram_read_gbs,nvram_write_gbs,tag_hit,tag_miss_clean,tag_miss_dirty,ddo,label"); err != nil {
		return err
	}
	for _, s := range ts.samples {
		if _, err := fmt.Fprintf(w, "%.6f,%.6f,%.3f,%.3f,%.3f,%.3f,%d,%d,%d,%d,%s\n",
			s.Time, s.Dur,
			s.DRAMReadBW()/1e9, s.DRAMWriteBW()/1e9,
			s.NVRAMReadBW()/1e9, s.NVRAMWriteBW()/1e9,
			s.Delta.TagHit, s.Delta.TagMissClean, s.Delta.TagMissDirty, s.Delta.DDO,
			s.Label); err != nil {
			return err
		}
	}
	return nil
}
