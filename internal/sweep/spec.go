// Package sweep turns a declarative design-space specification into
// thousands of deterministic simulation jobs and executes them at high
// throughput on the engine worker pool.
//
// The paper's argument is comparative — it only lands by measuring
// many cache geometries and policies against each other — and Babaie
// et al. ("Enabling Design Space Exploration of DRAM Caches in
// Emerging Memory Systems") make the case for sweeping
// size/associativity/ratio grids wholesale. A Spec names the axes;
// Expand crosses them into Points in a fixed documented order; a
// Runner executes every point and produces one Row per point, merged
// into tables that are byte-identical regardless of worker count.
//
// The perf headline is amortized job execution: points sharing a
// Geometry (capacities, channel/DIMM counts, associativity, policy)
// recycle pooled controllers via imc.Controller.Reset instead of
// paying a cold construction per job, and all immutable per-class
// precomputation (resolved capacities, footprint line counts, fastdiv
// reciprocals and interleave memos inside the pooled controller) is
// computed once per class and shared read-only across its jobs. The
// recycled-vs-fresh differential tests prove the reuse is
// observationally invisible.
package sweep

import (
	"fmt"

	"twolm/internal/imc"
	"twolm/internal/jobspec"
	"twolm/internal/mem"
)

// Pattern names accepted by Spec.Patterns — aliases of the canonical
// jobspec definitions so existing callers keep compiling.
const (
	PatternSequential = jobspec.PatternSequential
	PatternRandom     = jobspec.PatternRandom
	PatternWrite      = jobspec.PatternWrite
)

// Policy ablation names accepted by Spec.Policies, matching the
// acceptance matrix used by the differential tests since PR 2 —
// aliases of the canonical jobspec definitions.
const (
	PolicyHardware        = jobspec.PolicyHardware
	PolicyNoWriteAllocate = jobspec.PolicyNoWriteAllocate
	PolicyNoReadAllocate  = jobspec.PolicyNoReadAllocate
	PolicyDDOOff          = jobspec.PolicyDDOOff
)

// Spec is a declarative sweep: a name plus the canonical jobspec grid
// axes. Each axis field is one axis and the sweep is the cross
// product; zero-value axes are filled by Normalized with
// single-element defaults, so a minimal spec names only the axes it
// varies. The embedded jobspec.Axes carries the JSON field set: a
// Spec is the `sweep` section of a versioned jobspec document plus the
// document's name, and a file reaches it only through the strict
// jobspec.Decode and FromSpec.
type Spec struct {
	// Name labels the sweep in artifacts and progress gauges.
	Name string `json:"name,omitempty"`

	jobspec.Axes
}

// Normalized returns the spec with every defaultable axis filled in
// (the shared jobspec defaulting rule).
func (s Spec) Normalized() Spec {
	s.Axes = s.Axes.Normalized()
	return s
}

// FromSpec lowers a validated jobspec document into the sweep's axis
// form — the one conversion every consumer (cmd/repro -job,
// cmd/simd) shares, which is what makes their result
// artifacts byte-identical for the same spec file. A grid spec maps
// axis-for-axis; a single-point spec becomes a one-point grid, with
// the workload's power-of-two Scale divisor lowered onto SampleLines
// (footprint/Scale demand lines per pass — the -scale flag semantics).
func FromSpec(j jobspec.Spec) (Spec, error) {
	if err := j.Validate(); err != nil {
		return Spec{}, err
	}
	n := j.Normalized()
	if n.Sweep != nil {
		return Spec{Name: n.Name, Axes: *n.Sweep}, nil
	}
	g, w := n.Geometry, n.Workload
	ax := jobspec.Axes{
		CacheKiB: []uint64{g.CacheKiB},
		Ways:     []int{g.Ways},
		Policies: []string{n.Policy},
		Channels: []int{g.Channels},
		DIMMs:    []int{g.DIMMs},
		Ratios:   []uint64{w.Ratio},
		Patterns: []string{w.Pattern},
		Seeds:    []uint32{w.Seed},
		Passes:   w.Passes,
	}
	if w.Scale > 1 {
		lines := g.CacheKiB * 1024 / mem.Line * w.Ratio
		ax.SampleLines = lines / w.Scale
		if ax.SampleLines == 0 {
			ax.SampleLines = 1
		}
	}
	return Spec{Name: n.Name, Axes: ax}, nil
}

// policyFor maps an ablation name onto the controller policy at the
// given associativity.
func policyFor(name string, ways int) (imc.Policy, error) {
	p := imc.HardwarePolicy()
	p.Ways = ways
	switch name {
	case PolicyHardware:
	case PolicyNoWriteAllocate:
		p.WriteAllocate = false
	case PolicyNoReadAllocate:
		p.ReadAllocate = false
	case PolicyDDOOff:
		p.DisableDDO = true
	default:
		return imc.Policy{}, fmt.Errorf("sweep: unknown policy %q (want %s|%s|%s|%s)",
			name, PolicyHardware, PolicyNoWriteAllocate, PolicyNoReadAllocate, PolicyDDOOff)
	}
	return p, nil
}

// patternKind is the dispatch-ready form of a pattern name.
type patternKind uint8

const (
	patSequential patternKind = iota
	patRandom
	patWrite
)

func patternFor(name string) (patternKind, error) {
	switch name {
	case PatternSequential:
		return patSequential, nil
	case PatternRandom:
		return patRandom, nil
	case PatternWrite:
		return patWrite, nil
	}
	return 0, fmt.Errorf("sweep: unknown pattern %q (want %s|%s|%s)",
		name, PatternSequential, PatternRandom, PatternWrite)
}

// Geometry is the immutable precomputation shared by every point of
// one geometry class: the resolved capacities and derived line counts
// that fix a controller's allocation shape and policy. Expand builds
// exactly one Geometry value per distinct class and every Point of the
// class references it read-only, so the per-class work (validation,
// capacity arithmetic, and — inside the pooled controllers built from
// it — fastdiv reciprocals, interleave memos, and the packed tag-array
// shell) is paid once, not per job.
type Geometry struct {
	CacheKiB   uint64
	CacheBytes uint64
	NVRAMBytes uint64
	Ratio      uint64
	Channels   int
	DIMMs      int
	PolicyName string
	Policy     imc.Policy

	// CacheLines and Lines are the cache and footprint sizes in 64 B
	// lines; PassLines is the demand lines each pass touches after
	// the SampleLines cap.
	CacheLines uint64
	Lines      uint64
	PassLines  uint64

	// id is the exact-value class identity the controller Arena keys
	// by, set once by resolveClass. Keying the pool by value (not by
	// the *Geometry pointer) is what lets independent Runners — every
	// job the simd service admits builds its own — share one pooled
	// fleet of controllers.
	id classID
}

// Key returns the class's stable FNV-1a geometry hash — the arena and
// label key for controller reuse. Two points may share pooled state
// only when every field that shapes controller allocation or behavior
// hashes in here; Expand additionally dedupes classes by exact field
// value, so equal keys always mean equal geometry.
func (g *Geometry) Key() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(g.CacheBytes)
	mix(g.NVRAMBytes)
	mix(uint64(g.Channels))
	mix(uint64(g.DIMMs))
	mix(uint64(g.Policy.Ways))
	var bits uint64
	if g.Policy.WriteAllocate {
		bits |= 1
	}
	if g.Policy.ReadAllocate {
		bits |= 2
	}
	if g.Policy.DisableDDO {
		bits |= 4
	}
	mix(bits)
	return h
}

// classID is the comparable exact-value identity used to dedupe
// geometry classes during expansion and to key the controller Arena.
// Because it compares every field that shapes controller allocation
// exactly, a (vanishingly unlikely) hash collision in Key could
// mislabel a class but can never hand a job a wrong-geometry
// controller.
type classID struct {
	cacheBytes uint64
	nvramBytes uint64
	channels   int
	dimms      int
	policy     imc.Policy
}

// Point is one fully resolved job of the sweep: a geometry class plus
// the per-point workload parameters. Index is the point's position in
// expansion order — the merge key that makes result tables independent
// of execution order.
type Point struct {
	Index   int
	Geom    *Geometry
	Pattern string
	Seed    uint32
	Passes  int

	kind patternKind
}

// Expand normalizes and validates the spec and crosses its axes into
// the deterministic point list. Axis order is fixed and documented:
// cache size, ways, policy, channels, DIMMs, ratio, pattern, seed —
// the slowest-varying axis first. The same spec always yields the
// same points in the same order, which is what lets merged tables be
// compared byte-for-byte across runs and worker counts.
func Expand(s Spec) ([]Point, error) {
	s = s.Normalized()
	if len(s.CacheKiB) == 0 {
		return nil, fmt.Errorf("sweep: spec has no cache_kib axis")
	}
	if s.Passes < 1 {
		return nil, fmt.Errorf("sweep: passes %d must be positive", s.Passes)
	}
	if s.Points() > jobspec.MaxPoints {
		return nil, fmt.Errorf("sweep: spec expands to more than %d points", jobspec.MaxPoints)
	}
	classes := make(map[classID]*Geometry)
	var points []Point
	for _, kib := range s.CacheKiB {
		for _, ways := range s.Ways {
			for _, polName := range s.Policies {
				for _, ch := range s.Channels {
					for _, dimms := range s.DIMMs {
						for _, ratio := range s.Ratios {
							g, err := resolveClass(classes, s, kib, ways, polName, ch, dimms, ratio)
							if err != nil {
								return nil, err
							}
							for _, pat := range s.Patterns {
								kind, err := patternFor(pat)
								if err != nil {
									return nil, err
								}
								seeds := s.Seeds
								if kind != patRandom {
									// Seed-independent patterns expand
									// once, not once per seed.
									seeds = s.Seeds[:1]
								}
								for _, seed := range seeds {
									points = append(points, Point{
										Index:   len(points),
										Geom:    g,
										Pattern: pat,
										Seed:    seed,
										Passes:  s.Passes,
										kind:    kind,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return points, nil
}

// resolveClass validates one geometry combination and returns its
// canonical shared Geometry, creating it on first sight.
func resolveClass(classes map[classID]*Geometry, s Spec, kib uint64, ways int, polName string, ch, dimms int, ratio uint64) (*Geometry, error) {
	pol, err := policyFor(polName, ways)
	if err != nil {
		return nil, err
	}
	if kib == 0 {
		return nil, fmt.Errorf("sweep: cache size must be positive")
	}
	cacheBytes := kib * 1024
	if cacheBytes%(mem.Line*uint64(ways)) != 0 {
		return nil, fmt.Errorf("sweep: cache %d KiB is not a multiple of %d ways x %d B lines", kib, ways, mem.Line)
	}
	if ch < 1 {
		return nil, fmt.Errorf("sweep: channel count %d must be positive", ch)
	}
	if dimms < 1 {
		return nil, fmt.Errorf("sweep: dimm count %d must be positive", dimms)
	}
	if ratio < 1 {
		return nil, fmt.Errorf("sweep: ratio %d must be >= 1", ratio)
	}
	id := classID{cacheBytes: cacheBytes, nvramBytes: cacheBytes * ratio, channels: ch, dimms: dimms, policy: pol}
	if g, ok := classes[id]; ok {
		return g, nil
	}
	g := &Geometry{
		CacheKiB:   kib,
		CacheBytes: cacheBytes,
		NVRAMBytes: cacheBytes * ratio,
		Ratio:      ratio,
		Channels:   ch,
		DIMMs:      dimms,
		PolicyName: polName,
		Policy:     pol,
		CacheLines: cacheBytes / mem.Line,
		id:         id,
	}
	g.Lines = g.NVRAMBytes / mem.Line
	g.PassLines = g.Lines
	if s.SampleLines != 0 && s.SampleLines < g.PassLines {
		g.PassLines = s.SampleLines
	}
	classes[id] = g
	return g, nil
}

// DefaultSpec is the full design-space grid: the paper's comparison
// axes (size, associativity, all four policy ablations, DRAM:NVRAM
// ratio) over both stream shapes. 288 points. examples/sweep_default.json
// is the same grid as a jobspec file; TestExampleGrids keeps the two
// equal.
func DefaultSpec() Spec {
	return Spec{
		Name: "default",
		Axes: jobspec.Axes{
			CacheKiB: []uint64{256, 512, 1024},
			Ways:     []int{1, 4},
			Policies: []string{PolicyHardware, PolicyNoWriteAllocate, PolicyNoReadAllocate, PolicyDDOOff},
			Channels: []int{1, 6},
			Ratios:   []uint64{2, 4, 8},
			Patterns: []string{PatternSequential, PatternRandom},
			Passes:   1,
		},
	}
}

// BenchmarkSpec is the 1024-point grid behind BenchmarkSweepThroughput
// and the benchcheck sweep_jobs_per_sec gate: 16 geometry classes
// (2 sizes x 2 ways x 4 policies) x 64 random seeds, sampled at 4096
// lines per job so per-job work is bounded while the per-job setup a
// naive runner would pay (a multi-MiB tag array per point) is not —
// the regime controller reuse exists for.
func BenchmarkSpec() Spec {
	seeds := make([]uint32, 64)
	for i := range seeds {
		seeds[i] = 0x2B1A + uint32(i)*0x9E37
	}
	return Spec{
		Name: "bench",
		Axes: jobspec.Axes{
			CacheKiB:    []uint64{2048, 4096},
			Ways:        []int{1, 4},
			Policies:    []string{PolicyHardware, PolicyNoWriteAllocate, PolicyNoReadAllocate, PolicyDDOOff},
			Ratios:      []uint64{4},
			Patterns:    []string{PatternRandom},
			Seeds:       seeds,
			Passes:      1,
			SampleLines: 4096,
		},
	}
}
