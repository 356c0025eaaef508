package analytics

import (
	"reflect"
	"testing"

	"twolm/internal/core"
	"twolm/internal/graph"
	"twolm/internal/mem"
	"twolm/internal/platform"
)

// placement builds a system and a kernel config for g the way the
// graph study does: 2LM and NUMA allocate everything through the flat
// address space, Sage pins the graph in NVRAM and its properties in
// DRAM.
type placement struct {
	name string
	mode core.Mode
	sage bool
}

var placements = []placement{
	{name: "2LM", mode: core.Mode2LM},
	{name: "NUMA", mode: core.Mode1LM},
	{name: "Sage", mode: core.Mode1LM, sage: true},
}

func (p placement) config(t *testing.T, g *graph.Graph, perLine bool) Config {
	t.Helper()
	// A DRAM smaller than the graph, so 2LM misses the DRAM cache and
	// NUMA spills into NVRAM.
	sys, err := core.New(core.Config{
		Platform: platform.Config{
			Sockets: 1, ChannelsPerSocket: 6,
			DRAMPerChannel:  32 * mem.KiB,
			NVRAMPerChannel: 16 * mem.MiB,
			Scale:           1, Threads: 24,
		},
		Mode:     p.mode,
		LLCBytes: 16 * mem.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if perLine {
		sys.SetTap(func(core.TapOp, uint64) {})
	}
	space := sys.AddressSpace()
	place, allocProp := space.Alloc, space.Alloc
	if p.sage {
		place, allocProp = space.AllocNVRAM, space.AllocDRAM
	}
	layout, err := g.Place(place)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Sys: sys, G: g, Layout: layout, AllocProp: allocProp,
		Threads: 24, PRRounds: 4, KCoreK: 6,
	}
}

// TestBatchedKernelsMatchPerLine runs every kernel under every
// placement twice: through the batch builder, and with a no-op tap
// installed, which sends every element access down the per-line
// path. The batched run must report the same result, series, answer,
// simulated time and demand bytes.
func TestBatchedKernelsMatchPerLine(t *testing.T) {
	g, err := graph.Kronecker(13, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	kernels := map[string]func(Config) (Result, error){
		"bfs":   func(c Config) (Result, error) { return BFS(c, g.MaxOutDegreeNode()) },
		"cc":    CC,
		"kcore": KCore,
		"pr":    PageRank,
	}
	for _, p := range placements {
		for name, run := range kernels {
			t.Run(p.name+"/"+name, func(t *testing.T) {
				ref := p.config(t, g, true)
				got := p.config(t, g, false)
				want, err := run(ref)
				if err != nil {
					t.Fatal(err)
				}
				res, err := run(got)
				if err != nil {
					t.Fatal(err)
				}
				if want.Delta.Demand() == 0 {
					t.Fatal("reference run generated no traffic")
				}
				if res.Delta != want.Delta {
					t.Errorf("counters diverge\n per-line: %v\n batched:  %v", want.Delta, res.Delta)
				}
				if res.Elapsed != want.Elapsed || res.Rounds != want.Rounds {
					t.Errorf("elapsed/rounds diverge: per-line %v/%d, batched %v/%d",
						want.Elapsed, want.Rounds, res.Elapsed, res.Rounds)
				}
				if a, b := ref.Sys.DemandBytes(), got.Sys.DemandBytes(); a != b {
					t.Errorf("demand bytes diverge: per-line %d, batched %d", a, b)
				}
				if !reflect.DeepEqual(res.Output, want.Output) {
					t.Error("kernel outputs diverge")
				}
				ws, gs := want.Series.Samples(), res.Series.Samples()
				if len(ws) != len(gs) {
					t.Fatalf("series lengths diverge: per-line %d, batched %d", len(ws), len(gs))
				}
				for i := range ws {
					if ws[i] != gs[i] {
						t.Errorf("sample %d diverges\n per-line: %+v\n batched:  %+v", i, ws[i], gs[i])
					}
				}
			})
		}
	}
}
