// Package jobspec defines the canonical, versioned job description of
// the simulator: one JSON shape that names a controller geometry, a
// policy ablation, a workload, and the telemetry artifacts a run must
// produce. It is the API-redesign core behind simulation-as-a-service:
// the same spec file drives `cmd/repro -job` and a `POST /v1/jobs` to
// `cmd/simd`, and both produce byte-identical result artifacts because
// they execute through the same expansion of the same spec. The
// design-space grids under examples/ (sweep_default.json,
// sweep_quick.json) are spec files too: Decode is the one grid reader.
//
// The spec comes in two forms, discriminated by which section is set:
//
//   - the single-point form (`geometry` + optional `policy`/`workload`)
//     names exactly one job;
//   - the grid form (`sweep`) names a multi-axis cross product — the
//     Axes type here is what internal/sweep composes its Spec from.
//
// Decoding is strict: Decode rejects unknown fields anywhere in the
// document (a typo'd axis must fail loudly, not silently run the
// default), and Validate reports every violation at once with a field
// path per finding, so a client fixes a bad spec in one round trip.
//
// Versioning and compatibility rules (DESIGN.md §4i): `version` is
// required and currently must be 1. Adding optional fields with
// defaults is a compatible change within a version; removing fields,
// changing a default, or changing the meaning of a field requires a
// version bump, and consumers reject versions they do not know.
package jobspec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"twolm/internal/mem"
)

// Version is the one spec version this tree understands.
const Version = 1

// Pattern names accepted by Workload.Pattern and Axes.Patterns. These
// are the canonical definitions; internal/sweep aliases them.
const (
	// PatternSequential streams a demand-read pass followed by a
	// writeback pass over the footprint — the paper's streaming regime.
	PatternSequential = "sequential"
	// PatternRandom issues an LFSR-ordered read/write mix over the
	// footprint — the paper's random-access regime.
	PatternRandom = "random"
	// PatternWrite streams writeback-only passes — the NT-store regime
	// that exercises DDO and write-allocate policy.
	PatternWrite = "write"
)

// Policy ablation names accepted by Spec.Policy and Axes.Policies,
// matching the acceptance matrix used by the differential tests.
const (
	PolicyHardware        = "hardware"
	PolicyNoWriteAllocate = "no-write-allocate"
	PolicyNoReadAllocate  = "no-read-allocate"
	PolicyDDOOff          = "ddo-off"
)

// Artifact format names accepted by Telemetry.Formats.
const (
	FormatCSV  = "csv"
	FormatJSON = "json"
)

// Result artifact names — the on-disk (and over-the-wire) contract
// shared by cmd/repro -job and cmd/simd results.
const (
	ResultCSVName  = "job_results.csv"
	ResultJSONName = "job_results.json"
	TraceCSVName   = "job_trace.csv"
	TraceJSONName  = "job_trace.json"
)

// DefaultSeed is the default random-pattern seed (the throughput
// benchmark seed used across the repository).
const DefaultSeed uint32 = 0x2B1A

// DefaultRatio is the default NVRAM:DRAM capacity ratio: footprint =
// ratio x cache capacity, so every ratio >= 2 runs the paper's
// miss-heavy regime.
const DefaultRatio uint64 = 2

// Geometry fixes the controller's allocation shape: DRAM-cache
// capacity, tag-store associativity, and the channel/DIMM topology.
type Geometry struct {
	// CacheKiB is the DRAM-cache capacity in KiB. Required: it is the
	// one field without a default.
	CacheKiB uint64 `json:"cache_kib"`
	// Ways is the tag-store associativity (default 1, the Cascade Lake
	// direct-mapped hardware).
	Ways int `json:"ways,omitempty"`
	// Channels is the DRAM channel count (default 1).
	Channels int `json:"channels,omitempty"`
	// DIMMs is the NVRAM DIMM count (default 1).
	DIMMs int `json:"dimms,omitempty"`
}

// Workload names the demand stream a single-point job issues.
type Workload struct {
	// Pattern is the stream shape (default sequential). See the
	// Pattern* constants.
	Pattern string `json:"pattern,omitempty"`
	// Ratio is the NVRAM:DRAM capacity ratio; the footprint is
	// Ratio x the cache capacity (default 2).
	Ratio uint64 `json:"ratio,omitempty"`
	// Seed seeds the LFSR order of random patterns (default
	// DefaultSeed; ignored by seed-independent patterns).
	Seed uint32 `json:"seed,omitempty"`
	// Scale is the footprint scale divisor (a power of two, default
	// 1): each pass touches Lines/Scale demand lines, the same
	// semantics as the shared -scale flag.
	Scale uint64 `json:"scale,omitempty"`
	// Passes is how many times the pattern repeats (default 1).
	Passes int `json:"passes,omitempty"`
}

// Telemetry selects the artifacts a job run must produce beyond its
// result rows.
type Telemetry struct {
	// SampleLines, when nonzero, records a deterministic bandwidth
	// trace of the run, sampled every SampleLines demand lines — the
	// Figure 5-9-style artifact. Only single-point jobs record traces
	// (a grid's points would interleave nondeterministically).
	SampleLines uint64 `json:"sample_lines,omitempty"`
	// Formats lists the artifact serializations to write (default
	// both csv and json). See the Format* constants.
	Formats []string `json:"formats,omitempty"`
}

// Axes is the multi-axis grid form: each field is one axis and the
// job is the cross product, expanded by internal/sweep in fixed
// documented order. sweep.Spec is the named composition of this type.
type Axes struct {
	// CacheKiB is the DRAM-cache capacity axis, in KiB. Required.
	CacheKiB []uint64 `json:"cache_kib"`
	// Ways is the associativity axis (default [1]).
	Ways []int `json:"ways,omitempty"`
	// Policies is the allocation-policy ablation axis (default
	// [hardware]).
	Policies []string `json:"policies,omitempty"`
	// Channels is the DRAM channel-count axis (default [1]).
	Channels []int `json:"channels,omitempty"`
	// DIMMs is the NVRAM DIMM-count axis (default [1]).
	DIMMs []int `json:"dimms,omitempty"`
	// Ratios is the NVRAM:DRAM capacity-ratio axis (default [2]).
	Ratios []uint64 `json:"ratios,omitempty"`
	// Patterns is the workload-pattern axis (default [sequential]).
	Patterns []string `json:"patterns,omitempty"`
	// Seeds is the random-pattern seed axis (default [DefaultSeed]).
	// Only random points vary by seed; other patterns expand once,
	// pinned to Seeds[0].
	Seeds []uint32 `json:"seeds,omitempty"`
	// Passes is how many times each point repeats its pattern
	// (default 1).
	Passes int `json:"passes,omitempty"`
	// SampleLines, when nonzero, caps the demand lines each pass
	// touches, bounding per-point cost independent of footprint.
	SampleLines uint64 `json:"sample_lines,omitempty"`
}

// Spec is the canonical versioned job description. Exactly one of
// Geometry (single point) or Sweep (grid) must be set.
type Spec struct {
	// Version is the spec schema version; must be Version (1).
	Version int `json:"version"`
	// Name labels the job in artifacts and progress gauges.
	Name string `json:"name,omitempty"`

	// Geometry selects the single-point form.
	Geometry *Geometry `json:"geometry,omitempty"`
	// Policy is the single-point allocation-policy ablation (default
	// hardware). See the Policy* constants.
	Policy string `json:"policy,omitempty"`
	// Workload is the single-point demand stream (defaults apply when
	// omitted).
	Workload *Workload `json:"workload,omitempty"`

	// Sweep selects the grid form.
	Sweep *Axes `json:"sweep,omitempty"`

	// Telemetry selects trace artifacts and serializations.
	Telemetry *Telemetry `json:"telemetry,omitempty"`

	// TimeoutMS is the job's execution deadline in milliseconds
	// (0 = the server's default). Enforced by cmd/simd via
	// context.Context threaded through job execution.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Timeout returns TimeoutMS as a duration.
func (s Spec) Timeout() time.Duration { return time.Duration(s.TimeoutMS) * time.Millisecond }

// Normalized returns the spec with every defaultable field filled in:
// the single canonical defaulting rule all consumers share. Slices
// already present are kept (not copied); only absent sections and
// zero fields are replaced.
func (s Spec) Normalized() Spec {
	if s.Geometry != nil {
		g := *s.Geometry
		if g.Ways == 0 {
			g.Ways = 1
		}
		if g.Channels == 0 {
			g.Channels = 1
		}
		if g.DIMMs == 0 {
			g.DIMMs = 1
		}
		s.Geometry = &g
		if s.Policy == "" {
			s.Policy = PolicyHardware
		}
		w := Workload{}
		if s.Workload != nil {
			w = *s.Workload
		}
		if w.Pattern == "" {
			w.Pattern = PatternSequential
		}
		if w.Ratio == 0 {
			w.Ratio = DefaultRatio
		}
		if w.Seed == 0 {
			w.Seed = DefaultSeed
		}
		if w.Scale == 0 {
			w.Scale = 1
		}
		if w.Passes == 0 {
			w.Passes = 1
		}
		s.Workload = &w
	}
	if s.Sweep != nil {
		a := s.Sweep.Normalized()
		s.Sweep = &a
	}
	t := Telemetry{}
	if s.Telemetry != nil {
		t = *s.Telemetry
	}
	if len(t.Formats) == 0 {
		t.Formats = []string{FormatCSV, FormatJSON}
	}
	s.Telemetry = &t
	return s
}

// MaxPoints is the most points one grid may expand to. A few hundred
// bytes of axes can otherwise name billions of points, each of which
// internal/sweep materializes with a preallocated result row before
// running any. The cap sits far above sweep.DefaultSpec's 288 points
// and every committed example; a larger study is several jobs.
const MaxPoints = 65536

// Points returns how many points the normalized axes expand to,
// counted the way internal/sweep expands them: the product of the
// axis lengths, except that seed-independent patterns expand once
// rather than once per seed. The count saturates at MaxPoints+1, so
// axes of any length cannot overflow it.
func (a Axes) Points() int {
	perGeometry := 0
	for _, p := range a.Patterns {
		if p == PatternRandom {
			perGeometry += len(a.Seeds)
		} else {
			perGeometry++
		}
	}
	n := 1
	for _, f := range []int{len(a.CacheKiB), len(a.Ways), len(a.Policies), len(a.Channels),
		len(a.DIMMs), len(a.Ratios), perGeometry} {
		if f == 0 {
			return 0
		}
		if n > (MaxPoints+1)/f {
			return MaxPoints + 1
		}
		n *= f
	}
	return n
}

// Normalized returns the axes with every defaultable axis filled in
// with its single-element default — the same rule sweep.Spec uses.
func (a Axes) Normalized() Axes {
	if len(a.Ways) == 0 {
		a.Ways = []int{1}
	}
	if len(a.Policies) == 0 {
		a.Policies = []string{PolicyHardware}
	}
	if len(a.Channels) == 0 {
		a.Channels = []int{1}
	}
	if len(a.DIMMs) == 0 {
		a.DIMMs = []int{1}
	}
	if len(a.Ratios) == 0 {
		a.Ratios = []uint64{DefaultRatio}
	}
	if len(a.Patterns) == 0 {
		a.Patterns = []string{PatternSequential}
	}
	if len(a.Seeds) == 0 {
		a.Seeds = []uint32{DefaultSeed}
	}
	if a.Passes == 0 {
		a.Passes = 1
	}
	return a
}

// FieldError is one validation violation, addressed by the JSON field
// path it applies to.
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"msg"`
}

// Errors is the multi-violation validation error: Validate returns
// every problem in one pass, not just the first, so a client fixes a
// bad spec in one round trip. It serializes as the 400-response body
// of cmd/simd.
type Errors struct {
	Violations []FieldError `json:"violations"`
}

func (e *Errors) Error() string {
	parts := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		parts[i] = v.Field + ": " + v.Msg
	}
	return "jobspec: invalid spec: " + strings.Join(parts, "; ")
}

// add appends one violation.
func (e *Errors) add(field, format string, args ...any) {
	e.Violations = append(e.Violations, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
}

// ValidPattern reports whether name is a known pattern.
func ValidPattern(name string) bool {
	return name == PatternSequential || name == PatternRandom || name == PatternWrite
}

// ValidPolicy reports whether name is a known policy ablation.
func ValidPolicy(name string) bool {
	switch name {
	case PolicyHardware, PolicyNoWriteAllocate, PolicyNoReadAllocate, PolicyDDOOff:
		return true
	}
	return false
}

// checkGeometry validates one resolved geometry combination — the
// shared rule for the point form, each grid cell, and sweep expansion.
func checkGeometry(e *Errors, prefix string, cacheKiB uint64, ways, channels, dimms int) {
	if cacheKiB == 0 {
		e.add(prefix+".cache_kib", "cache capacity is required and must be positive")
	}
	if ways < 1 {
		e.add(prefix+".ways", "associativity %d must be >= 1", ways)
	} else if cacheKiB != 0 && (cacheKiB*1024)%(mem.Line*uint64(ways)) != 0 {
		e.add(prefix+".cache_kib", "%d KiB is not a multiple of %d ways x %d B lines", cacheKiB, ways, mem.Line)
	}
	if channels < 1 {
		e.add(prefix+".channels", "channel count %d must be >= 1", channels)
	}
	if dimms < 1 {
		e.add(prefix+".dimms", "dimm count %d must be >= 1", dimms)
	}
}

// Validate checks the spec and returns nil or an *Errors listing
// every violation. Defaults are applied first (via Normalized), so a
// zero field with a default is never a violation — only values that
// cannot be defaulted into validity are.
func (s Spec) Validate() error {
	e := &Errors{}
	if s.Version != Version {
		e.add("version", "unsupported spec version %d (this build understands %d)", s.Version, Version)
	}
	switch {
	case s.Geometry == nil && s.Sweep == nil:
		e.add("geometry", "either geometry (single point) or sweep (grid) is required")
	case s.Geometry != nil && s.Sweep != nil:
		e.add("geometry", "geometry and sweep are mutually exclusive")
	}
	if s.Sweep != nil {
		if s.Workload != nil {
			e.add("workload", "workload applies to the single-point form; use the sweep axes")
		}
		if s.Policy != "" {
			e.add("policy", "policy applies to the single-point form; use sweep.policies")
		}
	}
	n := s.Normalized()
	if g := n.Geometry; g != nil && s.Sweep == nil {
		checkGeometry(e, "geometry", g.CacheKiB, g.Ways, g.Channels, g.DIMMs)
		w := n.Workload
		if !ValidPattern(w.Pattern) {
			e.add("workload.pattern", "unknown pattern %q (want %s|%s|%s)",
				w.Pattern, PatternSequential, PatternRandom, PatternWrite)
		}
		if !ValidPolicy(n.Policy) {
			e.add("policy", "unknown policy %q (want %s|%s|%s|%s)",
				n.Policy, PolicyHardware, PolicyNoWriteAllocate, PolicyNoReadAllocate, PolicyDDOOff)
		}
		if w.Scale&(w.Scale-1) != 0 {
			e.add("workload.scale", "scale %d must be a power of two", w.Scale)
		}
		if w.Passes < 1 {
			e.add("workload.passes", "passes %d must be >= 1", w.Passes)
		}
	}
	if a := n.Sweep; a != nil && s.Geometry == nil {
		validateAxes(e, a)
	}
	for i, f := range n.Telemetry.Formats {
		if f != FormatCSV && f != FormatJSON {
			e.add(fmt.Sprintf("telemetry.formats[%d]", i), "unknown format %q (want %s|%s)", f, FormatCSV, FormatJSON)
		}
	}
	if s.TimeoutMS < 0 {
		e.add("timeout_ms", "timeout %d must be >= 0", s.TimeoutMS)
	}
	if len(e.Violations) == 0 {
		return nil
	}
	return e
}

// validateAxes checks every element of every axis, including the
// pairwise cache/ways alignment of each grid cell.
func validateAxes(e *Errors, a *Axes) {
	if len(a.CacheKiB) == 0 {
		e.add("sweep.cache_kib", "the cache-capacity axis is required and must be non-empty")
	}
	for i, kib := range a.CacheKiB {
		if kib == 0 {
			e.add(fmt.Sprintf("sweep.cache_kib[%d]", i), "cache capacity must be positive")
			continue
		}
		for j, ways := range a.Ways {
			if ways >= 1 && (kib*1024)%(mem.Line*uint64(ways)) != 0 {
				e.add(fmt.Sprintf("sweep.cache_kib[%d]", i),
					"%d KiB is not a multiple of ways[%d]=%d x %d B lines", kib, j, ways, mem.Line)
			}
		}
	}
	for i, w := range a.Ways {
		if w < 1 {
			e.add(fmt.Sprintf("sweep.ways[%d]", i), "associativity %d must be >= 1", w)
		}
	}
	for i, p := range a.Policies {
		if !ValidPolicy(p) {
			e.add(fmt.Sprintf("sweep.policies[%d]", i), "unknown policy %q (want %s|%s|%s|%s)",
				p, PolicyHardware, PolicyNoWriteAllocate, PolicyNoReadAllocate, PolicyDDOOff)
		}
	}
	for i, c := range a.Channels {
		if c < 1 {
			e.add(fmt.Sprintf("sweep.channels[%d]", i), "channel count %d must be >= 1", c)
		}
	}
	for i, d := range a.DIMMs {
		if d < 1 {
			e.add(fmt.Sprintf("sweep.dimms[%d]", i), "dimm count %d must be >= 1", d)
		}
	}
	for i, r := range a.Ratios {
		if r < 1 {
			e.add(fmt.Sprintf("sweep.ratios[%d]", i), "ratio %d must be >= 1", r)
		}
	}
	for i, p := range a.Patterns {
		if !ValidPattern(p) {
			e.add(fmt.Sprintf("sweep.patterns[%d]", i), "unknown pattern %q (want %s|%s|%s)",
				p, PatternSequential, PatternRandom, PatternWrite)
		}
	}
	if a.Passes < 1 {
		e.add("sweep.passes", "passes %d must be >= 1", a.Passes)
	}
	if a.Points() > MaxPoints {
		e.add("sweep", "the axes expand to more than %d points; split the grid into smaller jobs", MaxPoints)
	}
}

// WantsFormat reports whether the normalized telemetry section asks
// for the given serialization.
func (s Spec) WantsFormat(format string) bool {
	n := s.Normalized()
	for _, f := range n.Telemetry.Formats {
		if f == format {
			return true
		}
	}
	return false
}

// Decode strictly decodes one spec from r: unknown fields anywhere in
// the document are rejected, trailing data is rejected, and the
// decoded spec must validate. This is the one wire/file decoding path
// shared by the -job flag and cmd/simd.
func Decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("jobspec: trailing data after the spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads, strictly decodes, and validates a spec file.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
