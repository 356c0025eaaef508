// Graph case-study experiments: Figure 7 (kernel performance when the
// input fits versus exceeds the DRAM cache), Figure 8 (total data
// moved, NUMA baseline versus 2LM) and Figure 9 (pagerank bandwidth
// and tag traces), plus the Sage-style semi-asymmetric comparison of
// Section VII-A-2.

package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"twolm/internal/analytics"
	"twolm/internal/core"
	"twolm/internal/graph"
	"twolm/internal/mem"
	"twolm/internal/perfcounter"
	"twolm/internal/platform"
	"twolm/internal/results"
	"twolm/internal/sage"
)

// GraphConfig parameterizes the graph case study. The defaults mirror
// the paper's setup at 1/4096 footprint scale: a Kronecker graph at
// ~10% of the DRAM-cache capacity (kron30 vs 384 GB) and a web-crawl-
// shaped graph at ~130% of it (wdc12's 507 GB vs 384 GB).
type GraphConfig struct {
	// Scale is the platform footprint divisor (power of two).
	Scale uint64
	// SmallScale/SmallEdgeFactor generate the fits-in-cache Kronecker
	// input (the kron30 stand-in).
	SmallScale, SmallEdgeFactor int
	// LargeScale/LargeEdgeFactor generate the exceeds-cache web-like
	// input (the wdc12 stand-in).
	LargeScale, LargeEdgeFactor int
	// Threads is the modeled worker count (96: both sockets).
	Threads int
	// PRRounds bounds pagerank (paper: 100; scaled default: 5).
	PRRounds int
	// KCoreK is the k-core parameter scaled to the graph's degrees.
	KCoreK int
	// Seed drives the generators.
	Seed int64
}

// DefaultGraphConfig returns the calibrated study configuration.
func DefaultGraphConfig() GraphConfig {
	return GraphConfig{
		Scale:           4096,
		SmallScale:      18,
		SmallEdgeFactor: 8,
		LargeScale:      21,
		LargeEdgeFactor: 14,
		Threads:         96,
		PRRounds:        5,
		KCoreK:          10,
		Seed:            1,
	}
}

func (c GraphConfig) withDefaults() GraphConfig {
	d := DefaultGraphConfig()
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if c.SmallScale == 0 {
		c.SmallScale = d.SmallScale
	}
	if c.SmallEdgeFactor == 0 {
		c.SmallEdgeFactor = d.SmallEdgeFactor
	}
	if c.LargeScale == 0 {
		c.LargeScale = d.LargeScale
	}
	if c.LargeEdgeFactor == 0 {
		c.LargeEdgeFactor = d.LargeEdgeFactor
	}
	if c.Threads == 0 {
		c.Threads = d.Threads
	}
	if c.PRRounds == 0 {
		c.PRRounds = d.PRRounds
	}
	if c.KCoreK == 0 {
		c.KCoreK = d.KCoreK
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// GraphMode is a placement/mode configuration of one run.
type GraphMode string

const (
	// Mode2LMFlat is memory mode: the hardware cache manages placement.
	Mode2LMFlat GraphMode = "2LM"
	// ModeNUMA is app-direct with NUMA-preferred allocation (DRAM
	// first, spilling to NVRAM) — the paper's Figure 8a baseline.
	ModeNUMA GraphMode = "NUMA"
	// ModeSage is app-direct with the graph pinned read-only in NVRAM
	// and mutable auxiliaries in DRAM.
	ModeSage GraphMode = "Sage"
)

// KernelNames lists the lonestar kernels in the paper's order.
var KernelNames = []string{"bfs", "cc", "kcore", "pr"}

// GraphRun is one (graph, mode, kernel) measurement.
type GraphRun struct {
	Graph   string
	Mode    GraphMode
	Kernel  string
	Result  analytics.Result
	HitRate float64
}

// Study holds every run of the graph case study; the figure functions
// derive their tables from it.
type Study struct {
	Config GraphConfig
	Small  *graph.Graph
	Large  *graph.Graph
	Runs   []GraphRun
}

// newSystem builds the two-socket platform in the given mode.
func (c GraphConfig) newSystem(mode core.Mode) (*core.System, error) {
	return core.New(core.Config{
		Platform: platform.CascadeLake(2, c.Scale, c.Threads),
		Mode:     mode,
	})
}

// runCell executes kernel once on g and simulates it in every one of
// modes, each on a fresh system of its own (matching the paper's
// quiet-system runs). The runs share the kernel's Output.
func (c GraphConfig) runCell(g *graph.Graph, modes []GraphMode, kernel string) ([]GraphRun, error) {
	targets := make([]analytics.Config, len(modes))
	for i, mode := range modes {
		t, err := c.target(g, mode)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s/%s: %w", g.Name, mode, kernel, err)
		}
		targets[i] = t
	}
	res, err := analytics.Run(kernel, targets...)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%v/%s: %w", g.Name, modes, kernel, err)
	}
	runs := make([]GraphRun, len(res))
	for i, r := range res {
		runs[i] = GraphRun{Graph: g.Name, Mode: modes[i], Kernel: kernel, Result: r, HitRate: r.Delta.HitRate()}
	}
	return runs, nil
}

// target builds the system for mode and places g on it. The modes
// differ only in placement: 2LM and NUMA allocate everything through
// the flat address space, Sage pins the graph in NVRAM.
func (c GraphConfig) target(g *graph.Graph, mode GraphMode) (analytics.Config, error) {
	var coreMode core.Mode
	switch mode {
	case Mode2LMFlat:
		coreMode = core.Mode2LM
	case ModeNUMA, ModeSage:
		coreMode = core.Mode1LM
	default:
		return analytics.Config{}, fmt.Errorf("unknown mode %q", mode)
	}
	sys, err := c.newSystem(coreMode)
	if err != nil {
		return analytics.Config{}, err
	}
	cfg := analytics.Config{
		Threads:  c.Threads,
		PRRounds: c.PRRounds,
		KCoreK:   c.KCoreK,
	}
	if mode == ModeSage {
		session, err := sage.New(sys, g)
		if err != nil {
			return analytics.Config{}, err
		}
		return session.Config(cfg), nil
	}
	layout, err := g.Place(sys.AddressSpace().Alloc)
	if err != nil {
		return analytics.Config{}, err
	}
	cfg.Sys, cfg.G, cfg.Layout = sys, g, layout
	cfg.AllocProp = sys.AddressSpace().Alloc
	return cfg, nil
}

// graphCell is one kernel execution of the study: kernel on g,
// simulated in each of modes; the run in modes[i] fills slot slots[i]
// of Study.Runs.
type graphCell struct {
	g      *graph.Graph
	modes  []GraphMode
	kernel string
	slots  []int
}

// studyCells lists the study's cells: per kernel, one on the small
// graph in 2LM and one on the large graph in 2LM, NUMA and Sage. The
// slots keep Study.Runs in its order: the small graph in 2LM, then the
// large graph in 2LM, NUMA and Sage, each in KernelNames order.
func studyCells(small, large *graph.Graph) []graphCell {
	nk := len(KernelNames)
	cells := make([]graphCell, 0, 2*nk)
	for i, kernel := range KernelNames {
		cells = append(cells, graphCell{small, []GraphMode{Mode2LMFlat}, kernel, []int{i}})
	}
	for i, kernel := range KernelNames {
		cells = append(cells, graphCell{large, []GraphMode{Mode2LMFlat, ModeNUMA, ModeSage}, kernel,
			[]int{nk + i, 2*nk + i, 3*nk + i}})
	}
	return cells
}

// RunGraphStudy generates both inputs and executes every kernel in
// 2LM (both graphs), NUMA (large graph — the Figure 8 baseline) and
// Sage (large graph — the Section VII comparison). Each large-graph
// kernel executes once and feeds its three systems (analytics.Run), so
// the study is eight kernel executions filling sixteen runs.
//
// Every cell builds its own systems and only reads the shared graphs,
// so the cells execute concurrently (see runSlots) and each run lands
// in its fixed slot of Study.Runs: the study is the same at any
// GOMAXPROCS.
func RunGraphStudy(cfg GraphConfig) (*Study, error) {
	cfg = cfg.withDefaults()
	// Start the larger web-like graph first; slot 0 is still the small
	// graph, whose error wins if both fail.
	inputs, err := runSlots(2, []int{1, 0}, func(i int) (*graph.Graph, error) {
		if i == 0 {
			return graph.Kronecker(cfg.SmallScale, cfg.SmallEdgeFactor, cfg.Seed)
		}
		return graph.WebLike(cfg.LargeScale, cfg.LargeEdgeFactor, cfg.Seed)
	})
	if err != nil {
		return nil, err
	}
	small, large := inputs[0], inputs[1]

	cells := studyCells(small, large)
	done, err := runSlots(len(cells), dispatchOrder(cells), func(i int) ([]GraphRun, error) {
		return cfg.runCell(cells[i].g, cells[i].modes, cells[i].kernel)
	})
	if err != nil {
		return nil, err
	}
	runs := make([]GraphRun, 4*len(KernelNames))
	for i, cell := range cells {
		for j, slot := range cell.slots {
			runs[slot] = done[i][j]
		}
	}
	return &Study{Config: cfg, Small: small, Large: large, Runs: runs}, nil
}

// dispatchOrder lists the cells' indices largest graph first, then
// longest kernel first, so the longest cells start early and the short
// ones fill in at the end. It only balances the workers.
func dispatchOrder(cells []graphCell) []int {
	// The kernels by run time on the over-capacity graph, longest first.
	longestFirst := []string{"pr", "cc", "bfs", "kcore"}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ca, cb := cells[a], cells[b]
		if c := cmp.Compare(cb.g.NumEdges(), ca.g.NumEdges()); c != 0 {
			return c
		}
		return cmp.Compare(slices.Index(longestFirst, ca.kernel), slices.Index(longestFirst, cb.kernel))
	})
	return order
}

// find returns the run matching the key, or nil.
func (s *Study) find(graphName string, mode GraphMode, kernel string) *GraphRun {
	for i := range s.Runs {
		r := &s.Runs[i]
		if r.Graph == graphName && r.Mode == mode && r.Kernel == kernel {
			return r
		}
	}
	return nil
}

// unscaleSeconds converts simulated seconds to unscaled equivalents.
func (s *Study) unscaleSeconds(t float64) float64 { return t * float64(s.Config.Scale) }

// Fig7 renders Figure 7: per-kernel runtime and average bandwidth in
// 2LM for the fits-in-cache and exceeds-cache inputs.
func (s *Study) Fig7() *results.Table {
	t := results.NewTable(
		fmt.Sprintf("Figure 7: graph kernels in 2LM, %d threads (bandwidths GB/s)", s.Config.Threads),
		"graph", "kernel", "runtime_s", "dram_bw_gbs", "nvram_bw_gbs", "hit_rate", "amplification")
	for _, g := range []*graph.Graph{s.Small, s.Large} {
		for _, kernel := range KernelNames {
			r := s.find(g.Name, Mode2LMFlat, kernel)
			if r == nil {
				continue
			}
			el := r.Result.Elapsed
			d := r.Result.Delta
			dramBW, nvramBW := 0.0, 0.0
			if el > 0 {
				dramBW = float64((d.DRAMRead+d.DRAMWrite)*mem.Line) / el / mem.GB
				nvramBW = float64((d.NVRAMRead+d.NVRAMWrite)*mem.Line) / el / mem.GB
			}
			t.AddRow(g.Name, kernel, s.unscaleSeconds(el), dramBW, nvramBW, r.HitRate, d.Amplification())
		}
	}
	return t
}

// Fig8 renders Figure 8: total data moved per kernel on the large
// graph, NUMA baseline versus 2LM, with the resulting amplification.
func (s *Study) Fig8() *results.Table {
	t := results.NewTable(
		"Figure 8: total data moved on the over-capacity graph (scaled GB)",
		"kernel", "numa_total_gb", "2lm_total_gb", "2lm_vs_numa", "numa_nvram_gb", "2lm_nvram_gb")
	for _, kernel := range KernelNames {
		numa := s.find(s.Large.Name, ModeNUMA, kernel)
		twolm := s.find(s.Large.Name, Mode2LMFlat, kernel)
		if numa == nil || twolm == nil {
			continue
		}
		nd, td := numa.Result.Delta, twolm.Result.Delta
		numaTotal := float64(nd.MemoryAccesses()*mem.Line) / mem.GB
		twoTotal := float64(td.MemoryAccesses()*mem.Line) / mem.GB
		ratio := 0.0
		if numaTotal > 0 {
			ratio = twoTotal / numaTotal
		}
		t.AddRow(kernel, numaTotal, twoTotal, ratio,
			float64((nd.NVRAMRead+nd.NVRAMWrite)*mem.Line)/mem.GB,
			float64((td.NVRAMRead+td.NVRAMWrite)*mem.Line)/mem.GB)
	}
	return t
}

// Fig9Traces returns the pagerank counter traces: (a) the small graph
// in 2LM, (b/c) the large graph in 2LM (bandwidth and tag events come
// from the same series).
func (s *Study) Fig9Traces() (small, large *perfcounter.Series) {
	if r := s.find(s.Small.Name, Mode2LMFlat, "pr"); r != nil {
		small = r.Result.Series
	}
	if r := s.find(s.Large.Name, Mode2LMFlat, "pr"); r != nil {
		large = r.Result.Series
	}
	return small, large
}

// Fig9 renders the pagerank comparison as a table of per-round rates.
func (s *Study) Fig9() *results.Table {
	t := results.NewTable(
		"Figure 9: pagerank-push traces (per-round averages, GB/s)",
		"graph", "round", "dram_read", "dram_write", "nvram_read", "nvram_write", "tag_hit", "tag_miss_clean", "tag_miss_dirty")
	smallTr, largeTr := s.Fig9Traces()
	for _, tr := range []struct {
		name string
		s    *perfcounter.Series
	}{{s.Small.Name, smallTr}, {s.Large.Name, largeTr}} {
		if tr.s == nil {
			continue
		}
		round := 0
		for _, sample := range tr.s.Samples() {
			if sample.Dur == 0 {
				continue
			}
			round++
			t.AddRow(tr.name, sample.Label,
				sample.DRAMReadBW()/mem.GB, sample.DRAMWriteBW()/mem.GB,
				sample.NVRAMReadBW()/mem.GB, sample.NVRAMWriteBW()/mem.GB,
				fmt.Sprint(sample.Delta.TagHit), fmt.Sprint(sample.Delta.TagMissClean), fmt.Sprint(sample.Delta.TagMissDirty))
		}
	}
	return t
}

// SageTable renders the Section VII-A-2 comparison: Sage placement
// versus 2LM on the over-capacity graph.
func (s *Study) SageTable() *results.Table {
	t := results.NewTable(
		"Sage-style semi-asymmetric placement vs 2LM (over-capacity graph)",
		"kernel", "2lm_runtime_s", "sage_runtime_s", "speedup", "2lm_nvram_writes", "sage_nvram_writes")
	for _, kernel := range KernelNames {
		twolm := s.find(s.Large.Name, Mode2LMFlat, kernel)
		sg := s.find(s.Large.Name, ModeSage, kernel)
		if twolm == nil || sg == nil {
			continue
		}
		speedup := 0.0
		if sg.Result.Elapsed > 0 {
			speedup = twolm.Result.Elapsed / sg.Result.Elapsed
		}
		t.AddRow(kernel,
			s.unscaleSeconds(twolm.Result.Elapsed), s.unscaleSeconds(sg.Result.Elapsed),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprint(twolm.Result.Delta.NVRAMWrite), fmt.Sprint(sg.Result.Delta.NVRAMWrite))
	}
	return t
}
