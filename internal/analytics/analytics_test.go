package analytics

import (
	"testing"

	"twolm/internal/core"
	"twolm/internal/graph"
	"twolm/internal/mem"
	"twolm/internal/platform"
)

// newSystem builds a small 2LM system for kernel tests.
func newSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.New(core.Config{
		Platform: platform.Config{
			Sockets: 1, ChannelsPerSocket: 6,
			DRAMPerChannel:  mem.MiB,
			NVRAMPerChannel: 64 * mem.MiB,
			Scale:           1, Threads: 24,
		},
		Mode:     core.Mode2LM,
		LLCBytes: 32 * mem.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// setup places g on a fresh system and returns a base config.
func setup(t *testing.T, g *graph.Graph) Config {
	t.Helper()
	sys := newSystem(t)
	layout, err := g.Place(sys.AddressSpace().Alloc)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Sys: sys, G: g, Layout: layout,
		AllocProp: sys.AddressSpace().Alloc,
		Threads:   24,
	}
}

// lineGraph builds 0 -> 1 -> 2 -> ... -> n-1.
func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	src := make([]uint32, n-1)
	dst := make([]uint32, n-1)
	for i := 0; i < n-1; i++ {
		src[i] = uint32(i)
		dst[i] = uint32(i + 1)
	}
	g, err := graph.FromEdges("line", n, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refBFS is a plain reference BFS.
func refBFS(g *graph.Graph, src uint32) []uint32 {
	dist := make([]uint32, g.NumNodes())
	for i := range dist {
		dist[i] = InfDist
	}
	dist[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] == InfDist {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func TestBFSCorrectOnLine(t *testing.T) {
	g := lineGraph(t, 50)
	res, err := BFS(setup(t, g), 0)
	if err != nil {
		t.Fatal(err)
	}
	dist := res.Output.([]uint32)
	for i := 0; i < 50; i++ {
		if dist[i] != uint32(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
}

func TestBFSMatchesReferenceOnKron(t *testing.T) {
	g, err := graph.Kronecker(10, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := g.MaxOutDegreeNode()
	res, err := BFS(setup(t, g), src)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output.([]uint32)
	want := refBFS(g, src)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if res.Delta.Demand() == 0 {
		t.Error("BFS generated no memory traffic")
	}
	if res.Elapsed <= 0 {
		t.Error("BFS took no time")
	}
}

// refCC computes weakly connected components by union-find.
func refCC(g *graph.Graph) []uint32 {
	parent := make([]uint32, g.NumNodes())
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			ru, rv := find(uint32(u)), find(v)
			if ru != rv {
				if ru < rv {
					parent[rv] = ru
				} else {
					parent[ru] = rv
				}
			}
		}
	}
	out := make([]uint32, g.NumNodes())
	for i := range out {
		out[i] = find(uint32(i))
	}
	return out
}

func TestCCMatchesUnionFind(t *testing.T) {
	g, err := graph.Kronecker(9, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CC(setup(t, g))
	if err != nil {
		t.Fatal(err)
	}
	labels := res.Output.([]uint32)
	want := refCC(g)
	// Components must partition identically: same label iff same root.
	seen := map[[2]uint32]bool{}
	for i := range labels {
		seen[[2]uint32{labels[i], want[i]}] = true
	}
	byLabel := map[uint32]uint32{}
	for i := range labels {
		if root, ok := byLabel[labels[i]]; ok {
			if root != want[i] {
				t.Fatalf("label %d spans union-find roots %d and %d", labels[i], root, want[i])
			}
		} else {
			byLabel[labels[i]] = want[i]
		}
	}
	byRoot := map[uint32]uint32{}
	for i := range want {
		if lab, ok := byRoot[want[i]]; ok {
			if lab != labels[i] {
				t.Fatalf("root %d spans labels %d and %d", want[i], lab, labels[i])
			}
		} else {
			byRoot[want[i]] = labels[i]
		}
	}
	_ = seen
}

// refKCore computes the k-core size by repeated peeling.
func refKCore(g *graph.Graph, k int) int {
	n := g.NumNodes()
	deg := make([]int, n)
	alive := make([]bool, n)
	for u := 0; u < n; u++ {
		deg[u] = g.OutDegree(uint32(u))
		alive[u] = true
	}
	for {
		removed := false
		for u := 0; u < n; u++ {
			if alive[u] && deg[u] < k {
				alive[u] = false
				removed = true
				for _, v := range g.Neighbors(uint32(u)) {
					if alive[v] {
						deg[v]--
					}
				}
			}
		}
		if !removed {
			break
		}
	}
	count := 0
	for _, a := range alive {
		if a {
			count++
		}
	}
	return count
}

func TestKCoreMatchesReference(t *testing.T) {
	g, err := graph.Kronecker(9, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := setup(t, g)
	cfg.KCoreK = 8
	res, err := KCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output.(int)
	want := refKCore(g, 8)
	if got != want {
		t.Fatalf("k-core size = %d, want %d", got, want)
	}
}

func TestKCoreEmptyAndFull(t *testing.T) {
	g := lineGraph(t, 20) // out-degrees <= 1
	cfg := setup(t, g)
	cfg.KCoreK = 2
	res, err := KCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.(int) != 0 {
		t.Errorf("line graph 2-core = %d, want 0", res.Output.(int))
	}
}

func TestPageRankConservesMass(t *testing.T) {
	g, err := graph.Kronecker(9, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := setup(t, g)
	cfg.PRRounds = 30
	res, err := PageRank(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ranks := res.Output.([]float32)
	var sum float64
	for _, r := range ranks {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += float64(r)
	}
	// Push-style pagerank distributes at most n*(1-alpha)/(1-alpha)=n
	// total mass; with damping the absorbed rank converges below n.
	n := float64(g.NumNodes())
	if sum <= 0.2*n || sum > n+1 {
		t.Errorf("rank mass %.1f outside (%.1f, %.1f]", sum, 0.2*n, n)
	}
	if res.Rounds == 0 {
		t.Error("no rounds executed")
	}
	// High-degree hubs should outrank leaves on a skewed graph.
	hub := g.MaxOutDegreeNode()
	if ranks[hub] <= 1-PRAlpha {
		t.Errorf("hub rank %.4f no higher than base", ranks[hub])
	}
}

func TestPageRankSeriesPerRound(t *testing.T) {
	g, err := graph.Kronecker(8, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := setup(t, g)
	cfg.PRRounds = 5
	res, err := PageRank(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// init + rounds + drain samples.
	if res.Series.Len() < res.Rounds+2 {
		t.Errorf("series has %d samples for %d rounds", res.Series.Len(), res.Rounds)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := BFS(Config{}, 0); err == nil {
		t.Error("empty config accepted")
	}
}

// TestLoadSpanCoversLines: spans touching k lines generate k loads,
// and an empty span none. The spans run as the body of a kernel on one
// target; each ends a round, so each round's sample counts its loads.
func TestLoadSpanCoversLines(t *testing.T) {
	g := lineGraph(t, 64) // 63 edges: a 252-byte edge array
	span := kernel{name: "span", run: func(r *runner) (int, any) {
		r.loadSpan(arrEdges, 0, 32) // 128 bytes = 2 lines
		r.sync("two")
		r.loadSpan(arrEdges, 5, 5)
		r.sync("empty")
		r.loadSpan(arrEdges, 47, 49) // elements 47 and 48 straddle lines 2 and 3
		r.sync("straddle")
		return 3, nil
	}}
	res, err := one(span, setup(t, g))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"two": 2, "empty": 0, "straddle": 2}
	samples := res.Series.Samples()
	if len(samples) != 4 { // three rounds and the drain
		t.Fatalf("%d samples, want 4", len(samples))
	}
	for _, s := range samples[:3] {
		if got := s.Delta.LLCRead; got != want[s.Label] {
			t.Errorf("%s: %d line loads, want %d", s.Label, got, want[s.Label])
		}
	}
}
