package analytics

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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

// kernels are the exported one-target entry points by kernel name.
func kernels(g *graph.Graph) map[string]func(Config) (Result, error) {
	return map[string]func(Config) (Result, error){
		"bfs":   func(c Config) (Result, error) { return BFS(c, g.MaxOutDegreeNode()) },
		"cc":    CC,
		"kcore": KCore,
		"pr":    PageRank,
	}
}

// sameResult reports every field in which got differs from want: the
// counters, the simulated time to the bit, the rounds, the answer and
// every sample of the series.
func sameResult(t *testing.T, got, want Result) {
	t.Helper()
	if want.Delta.Demand() == 0 {
		t.Fatal("reference run generated no traffic")
	}
	if got.Kernel != want.Kernel || got.Delta != want.Delta {
		t.Errorf("counters diverge\n want: %s %v\n got:  %s %v", want.Kernel, want.Delta, got.Kernel, got.Delta)
	}
	if math.Float64bits(got.Elapsed) != math.Float64bits(want.Elapsed) || got.Rounds != want.Rounds {
		t.Errorf("elapsed/rounds diverge: want %v/%d, got %v/%d", want.Elapsed, want.Rounds, got.Elapsed, got.Rounds)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Error("kernel outputs diverge")
	}
	ws, gs := want.Series.Samples(), got.Series.Samples()
	if len(ws) != len(gs) {
		t.Fatalf("series lengths diverge: want %d, got %d", len(ws), len(gs))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Errorf("sample %d diverges\n want: %+v\n got:  %+v", i, ws[i], gs[i])
		}
	}
}

// checkLabels checks res's series against the kernel's rounds: an
// init sample (kcore and pr), one sample per round and the drain, so
// a run that loses a Sync fails even when every run loses it alike.
func checkLabels(t *testing.T, res Result) {
	t.Helper()
	var want []string
	round := "round"
	switch res.Kernel {
	case "bfs":
		round = "level"
	case "kcore", "pr":
		want = append(want, res.Kernel+":init")
	}
	for i := 1; i <= res.Rounds; i++ {
		want = append(want, fmt.Sprintf("%s:%s%d", res.Kernel, round, i))
	}
	want = append(want, res.Kernel+":drain")
	var got []string
	for _, s := range res.Series.Samples() {
		got = append(got, s.Label)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("series labels %v, want %v", got, want)
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
	for _, p := range placements {
		for name, run := range kernels(g) {
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
				sameResult(t, res, want)
				if a, b := ref.Sys.DemandBytes(), got.Sys.DemandBytes(); a != b {
					t.Errorf("demand bytes diverge: per-line %d, batched %d", a, b)
				}
			})
		}
	}
}

// TestMergedRunMatchesSeparateRuns: one Run serving the 2LM, NUMA and
// Sage placements at once must give each placement exactly the result
// and demand bytes of a run on its own, through the batch builder and
// through the per-line path alike. The graph is large enough for a
// run to cycle the chunk pool many times over.
func TestMergedRunMatchesSeparateRuns(t *testing.T) {
	g, err := graph.Kronecker(13, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, perLine := range []bool{false, true} {
		for name, alone := range kernels(g) {
			t.Run(fmt.Sprintf("%s/perLine=%v", name, perLine), func(t *testing.T) {
				merged := make([]Config, len(placements))
				for i, p := range placements {
					merged[i] = p.config(t, g, perLine)
				}
				got, err := Run(name, merged...)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(placements) {
					t.Fatalf("%d results for %d targets", len(got), len(placements))
				}
				for i, p := range placements {
					t.Run(p.name, func(t *testing.T) {
						cfg := p.config(t, g, perLine)
						want, err := alone(cfg)
						if err != nil {
							t.Fatal(err)
						}
						checkLabels(t, want)
						sameResult(t, got[i], want)
						if a, b := cfg.Sys.DemandBytes(), merged[i].Sys.DemandBytes(); a != b {
							t.Errorf("demand bytes diverge: alone %d, merged %d", a, b)
						}
					})
				}
			})
		}
	}
}

// TestRunFailuresLeaveNoGoroutine: a run whose targets cannot be
// placed, whose target panics mid-stream or whose kernel panics
// returns an error (or re-raises the kernel's panic) instead of
// hanging, and no consumer goroutine outlives it.
func TestRunFailuresLeaveNoGoroutine(t *testing.T) {
	g, err := graph.Kronecker(11, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	// targets returns fresh 2LM, NUMA and Sage targets, with edit
	// applied to the Sage one.
	targets := func(t *testing.T, edit func(*Config)) []Config {
		cfgs := make([]Config, len(placements))
		for i, p := range placements {
			cfgs[i] = p.config(t, g, false)
		}
		edit(&cfgs[2])
		return cfgs
	}
	// panicAfter installs a tap that panics on the n-th operation.
	panicAfter := func(n int) func(*Config) {
		return func(c *Config) {
			ops := 0
			c.Sys.SetTap(func(core.TapOp, uint64) {
				if ops++; ops == n {
					panic("tap failure")
				}
			})
		}
	}
	cases := []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"sage-dram-pool-exhausted", func(c *Config) {
			space := c.Sys.AddressSpace()
			if _, err := space.AllocDRAM(space.DRAMFree()); err != nil {
				t.Fatal(err)
			}
		}, "allocating ranks"},
		{"unaligned-property", func(c *Config) {
			alloc := c.AllocProp
			c.AllocProp = func(size uint64) (mem.Region, error) {
				reg, err := alloc(size + mem.Line)
				reg.Base += 4
				return reg, err
			}
		}, "not line-aligned"},
		{"unaligned-layout", func(c *Config) { c.Layout.Offsets.Base += 8 }, "not line-aligned"},
		{"offset-overflow", func(c *Config) { c.Layout.Edges.Size = maxArrayBytes + mem.Line }, "overflows"},
		{"region-too-small", func(c *Config) { c.Layout.Edges.Size = mem.Line }, "cannot hold"},
		{"target-panics-first", panicAfter(1), "tap failure"},
		{"target-panics-mid-stream", panicAfter(5 * chunkWords), "tap failure"},
		{"no-system", func(c *Config) { c.Sys = nil }, "required"},
	}
	// settled waits for the goroutine count to fall back to before.
	settled := func(t *testing.T, before int) {
		t.Helper()
		// Exited goroutines are reaped asynchronously; give them a moment.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("goroutines %d -> %d after the run returned", before, after)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			_, err := Run("pr", targets(t, c.edit)...)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one containing %q", err, c.want)
			}
			settled(t, before)
		})
	}
	t.Run("kernel-panics", func(t *testing.T) {
		before := runtime.NumGoroutine()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("an out-of-range BFS source did not panic")
				}
			}()
			cfgs := targets(t, func(*Config) {})
			_, _ = run(bfs(func(g *graph.Graph) uint32 { return uint32(g.NumNodes()) }), cfgs)
		}()
		settled(t, before)
	})
	t.Run("invalid-target-sets", func(t *testing.T) {
		before := runtime.NumGoroutine()
		cfgs := targets(t, func(*Config) {})
		other, err := graph.Kronecker(10, 8, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []struct {
			cfgs []Config
			want string
		}{
			{nil, "no targets"},
			{[]Config{cfgs[0], cfgs[0]}, "share a System"},
			{[]Config{cfgs[0], {Sys: cfgs[1].Sys, G: other, Layout: cfgs[1].Layout, AllocProp: cfgs[1].AllocProp}}, "differs"},
		} {
			if _, err := Run("cc", bad.cfgs...); err == nil || !strings.Contains(err.Error(), bad.want) {
				t.Errorf("err = %v, want one containing %q", err, bad.want)
			}
		}
		settled(t, before)
	})
}
