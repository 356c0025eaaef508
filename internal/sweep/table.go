package sweep

import (
	"io"
	"strconv"

	"twolm/internal/imc"
	"twolm/internal/telemetry"
)

// Row is one point's merged-table entry: the resolved axis values
// followed by the measured counters. Rows are produced in point order
// regardless of worker count or completion order — Index is the merge
// key — which is what makes WriteCSV/WriteJSON output byte-identical
// across -parallel settings.
type Row struct {
	Index    int
	CacheKiB uint64
	Ways     int
	Policy   string
	Channels int
	DIMMs    int
	Ratio    uint64
	Pattern  string
	Seed     uint32
	Passes   int

	// Lines is the demand lines the point issued (Counters.Demand).
	Lines    uint64
	Counters imc.Counters
	// MediaReads/MediaWrites are the NVRAM media-block counters,
	// which live on the module rather than in imc.Counters.
	MediaReads  uint64
	MediaWrites uint64
}

// tableHeader is the merged CSV column contract, pinned by the
// determinism tests: axes first, raw counters next, derived metrics
// last.
var tableHeader = []string{
	"index", "cache_kib", "ways", "policy", "channels", "dimms", "ratio",
	"pattern", "seed", "passes", "lines",
	"llc_read", "llc_write", "dram_read", "dram_write",
	"nvram_read", "nvram_write",
	"tag_hit", "tag_miss_clean", "tag_miss_dirty", "ddo",
	"media_reads", "media_writes",
	"hit_rate", "amplification",
}

func u(v uint64) string  { return strconv.FormatUint(v, 10) }
func f(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// WriteCSV writes the merged result table through the telemetry CSV
// convention. Output depends only on the rows, so two sweeps of the
// same spec produce byte-identical tables whatever their worker
// counts.
func WriteCSV(w io.Writer, rows []Row) error {
	recs := make([][]string, len(rows))
	for i := range rows {
		r := &rows[i]
		c := r.Counters
		recs[i] = []string{
			strconv.Itoa(r.Index), u(r.CacheKiB), strconv.Itoa(r.Ways), r.Policy,
			strconv.Itoa(r.Channels), strconv.Itoa(r.DIMMs), u(r.Ratio),
			r.Pattern, u(uint64(r.Seed)), strconv.Itoa(r.Passes), u(r.Lines),
			u(c.LLCRead), u(c.LLCWrite), u(c.DRAMRead), u(c.DRAMWrite),
			u(c.NVRAMRead), u(c.NVRAMWrite),
			u(c.TagHit), u(c.TagMissClean), u(c.TagMissDirty), u(c.DDO),
			u(r.MediaReads), u(r.MediaWrites),
			f(c.HitRate()), f(c.Amplification()),
		}
	}
	return telemetry.WriteCSVRows(w, tableHeader, recs)
}

// rowJSON is the flattened JSON shape of a Row: snake_case keys
// matching the CSV columns, derived metrics included.
type rowJSON struct {
	Index    int    `json:"index"`
	CacheKiB uint64 `json:"cache_kib"`
	Ways     int    `json:"ways"`
	Policy   string `json:"policy"`
	Channels int    `json:"channels"`
	DIMMs    int    `json:"dimms"`
	Ratio    uint64 `json:"ratio"`
	Pattern  string `json:"pattern"`
	Seed     uint32 `json:"seed"`
	Passes   int    `json:"passes"`
	Lines    uint64 `json:"lines"`

	LLCRead      uint64 `json:"llc_read"`
	LLCWrite     uint64 `json:"llc_write"`
	DRAMRead     uint64 `json:"dram_read"`
	DRAMWrite    uint64 `json:"dram_write"`
	NVRAMRead    uint64 `json:"nvram_read"`
	NVRAMWrite   uint64 `json:"nvram_write"`
	TagHit       uint64 `json:"tag_hit"`
	TagMissClean uint64 `json:"tag_miss_clean"`
	TagMissDirty uint64 `json:"tag_miss_dirty"`
	DDO          uint64 `json:"ddo"`
	MediaReads   uint64 `json:"media_reads"`
	MediaWrites  uint64 `json:"media_writes"`

	HitRate       float64 `json:"hit_rate"`
	Amplification float64 `json:"amplification"`
}

// WriteJSON writes the merged result table as indented JSON through
// the telemetry encoder, byte-identical across worker counts like the
// CSV form.
func WriteJSON(w io.Writer, rows []Row) error {
	out := make([]rowJSON, len(rows))
	for i := range rows {
		r := &rows[i]
		c := r.Counters
		out[i] = rowJSON{
			Index: r.Index, CacheKiB: r.CacheKiB, Ways: r.Ways, Policy: r.Policy,
			Channels: r.Channels, DIMMs: r.DIMMs, Ratio: r.Ratio,
			Pattern: r.Pattern, Seed: r.Seed, Passes: r.Passes, Lines: r.Lines,
			LLCRead: c.LLCRead, LLCWrite: c.LLCWrite,
			DRAMRead: c.DRAMRead, DRAMWrite: c.DRAMWrite,
			NVRAMRead: c.NVRAMRead, NVRAMWrite: c.NVRAMWrite,
			TagHit: c.TagHit, TagMissClean: c.TagMissClean, TagMissDirty: c.TagMissDirty,
			DDO: c.DDO, MediaReads: r.MediaReads, MediaWrites: r.MediaWrites,
			HitRate: c.HitRate(), Amplification: c.Amplification(),
		}
	}
	return telemetry.EncodeJSON(w, out)
}
