// The Recorder sink: a deterministic in-memory counter time series
// with CSV and JSON writers, plus the TraceSink artifact writer that
// regenerates Figure 5-9-style bandwidth traces under a results
// directory. The serialized forms contain only sample state — no
// wall-clock timestamps, no map iteration — so two runs that record
// the same samples produce byte-identical artifacts.

package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Recorder is a Sink that appends every sample to an in-memory
// series. It is not internally synchronized: producers record from
// one goroutine at a time (a traced sweep job runs its single point on
// one worker).
type Recorder struct {
	samples []Sample
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record implements Sink.
func (r *Recorder) Record(s Sample) { r.samples = append(r.samples, s) }

// Samples returns the recorded cumulative samples (shared backing
// array; callers must not mutate).
func (r *Recorder) Samples() []Sample { return r.samples }

// Len returns the number of recorded samples.
func (r *Recorder) Len() int { return len(r.samples) }

// header returns the CSV column names: the fixed counter columns
// followed by one reads/writes pair per channel (nch is the widest
// channel slice in the series).
func header(nch int) []string {
	cols := []string{
		"demand", "clock_s", "label",
		"llc_read", "llc_write",
		"dram_read", "dram_write", "nvram_read", "nvram_write",
		"tag_hit", "tag_miss_clean", "tag_miss_dirty", "ddo",
		"media_read", "media_write",
		"d_demand", "d_clock_s",
		"dram_read_gbs", "dram_write_gbs", "nvram_read_gbs", "nvram_write_gbs",
	}
	for i := 0; i < nch; i++ {
		cols = append(cols, fmt.Sprintf("ch%d_reads", i), fmt.Sprintf("ch%d_writes", i))
	}
	return cols
}

// WriteCSV emits the series with one row per sample: the cumulative
// counters, the interval deltas, delta bandwidths in GB/s (0 when
// the source has no time model), and per-channel CAS columns when
// any sample carries them. The layout matches what the paper's
// figures plot, with the demand clock as the deterministic x axis.
func (r *Recorder) WriteCSV(w io.Writer) error {
	nch := 0
	for _, s := range r.samples {
		if len(s.ChannelReads) > nch {
			nch = len(s.ChannelReads)
		}
	}
	rows := make([][]string, 0, len(r.samples))
	var prev Sample
	for _, s := range r.samples {
		d := s.Sub(prev)
		prev = s
		row := []string{
			strconv.FormatUint(s.Demand, 10),
			formatSeconds(s.Clock),
			s.Label,
			strconv.FormatUint(s.LLCRead, 10),
			strconv.FormatUint(s.LLCWrite, 10),
			strconv.FormatUint(s.DRAMRead, 10),
			strconv.FormatUint(s.DRAMWrite, 10),
			strconv.FormatUint(s.NVRAMRead, 10),
			strconv.FormatUint(s.NVRAMWrite, 10),
			strconv.FormatUint(s.TagHit, 10),
			strconv.FormatUint(s.TagMissClean, 10),
			strconv.FormatUint(s.TagMissDirty, 10),
			strconv.FormatUint(s.DDO, 10),
			strconv.FormatUint(s.MediaReads, 10),
			strconv.FormatUint(s.MediaWrites, 10),
			strconv.FormatUint(d.Demand, 10),
			formatSeconds(d.Clock),
			formatGBs(d.DRAMReadBW()),
			formatGBs(d.DRAMWriteBW()),
			formatGBs(d.NVRAMReadBW()),
			formatGBs(d.NVRAMWriteBW()),
		}
		for i := 0; i < nch; i++ {
			var cr, cw uint64
			if i < len(s.ChannelReads) {
				cr = s.ChannelReads[i]
			}
			if i < len(s.ChannelWrites) {
				cw = s.ChannelWrites[i]
			}
			row = append(row, strconv.FormatUint(cr, 10), strconv.FormatUint(cw, 10))
		}
		rows = append(rows, row)
	}
	return WriteCSVRows(w, header(nch), rows)
}

// formatSeconds renders simulated seconds with fixed microsecond
// precision, matching the perfcounter trace convention.
func formatSeconds(s float64) string { return strconv.FormatFloat(s, 'f', 6, 64) }

// formatGBs renders a bytes/s rate in GB/s with fixed precision.
func formatGBs(bps float64) string { return strconv.FormatFloat(bps/1e9, 'f', 3, 64) }

// WriteJSON emits the cumulative series as an indented JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	samples := r.samples
	if samples == nil {
		samples = []Sample{}
	}
	return EncodeJSON(w, samples)
}

// --- shared serialization helpers ------------------------------------

// WriteCSVRows emits a header row and data rows, quoting cells that
// contain commas, quotes or newlines. It is the one CSV convention of
// the repository: results.Table and the telemetry writers both
// serialize through it.
func WriteCSVRows(w io.Writer, headers []string, rows [][]string) error {
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			parts[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeRow(headers); err != nil {
		return err
	}
	for _, r := range rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// EncodeJSON writes v as indented JSON — the one JSON convention of
// the repository's artifacts (telemetry traces, the throughput
// baseline report).
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// --- artifact writer --------------------------------------------------

// TraceSink records a series and, on Close, writes it as a pair of
// artifacts — <dir>/<name>.csv and <dir>/<name>.json — the
// Figure 5-9-style bandwidth-trace files of the reproduction's
// results directory.
type TraceSink struct {
	Recorder
	dir  string
	name string
}

// NewTraceSink returns a trace artifact writer for dir/name.{csv,json}.
func NewTraceSink(dir, name string) *TraceSink {
	return &TraceSink{dir: dir, name: name}
}

// Close writes both artifact files. It may be called more than once;
// each call rewrites the files from the full series.
func (t *TraceSink) Close() error {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	csvF, err := os.Create(filepath.Join(t.dir, t.name+".csv"))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(csvF); err != nil {
		csvF.Close()
		return err
	}
	if err := csvF.Close(); err != nil {
		return err
	}
	jsonF, err := os.Create(filepath.Join(t.dir, t.name+".json"))
	if err != nil {
		return err
	}
	if err := t.WriteJSON(jsonF); err != nil {
		jsonF.Close()
		return err
	}
	return jsonF.Close()
}
