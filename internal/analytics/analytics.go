// Package analytics implements the Galois-lonestar graph kernels of
// the paper's Section VI — breadth-first search, connected components,
// k-core decomposition and pagerank-push — instrumented to drive the
// memory-system simulator while computing real results.
//
// Every array the algorithms touch (CSR offsets, edges, and the
// per-node property arrays) is placed in the simulated address space.
// One kernel execution feeds any number of targets: Systems that
// differ only in placement (each target's Layout and AllocProp), such
// as the graph study's 2LM, NUMA and Sage runs of one graph. The
// kernel computes once, on the calling goroutine, and records each
// element access as a placement-independent word — the line's offset
// in its array, the array and the op — in fixed-size chunks; the end
// of a round closes its chunk with the round's Sync label.
//
// Each target has one goroutine, which owns its System for the run: it
// adds the target's region bases to the words and appends them to the
// System's batch builder (core.Batch), whose on-chip cache filter
// coalesces same-line touches exactly as hardware would, in access
// order, and hands the misses to the memory in bulk. At each label it
// closes a Sync interval (Sync flushes the builder first), producing
// the time series of the paper's Figure 9. A fixed pool of chunks
// bounds memory: a chunk is reused once every target has applied it,
// and the kernel blocks while the slowest target has the whole pool.
//
// BFS, CC, KCore and PageRank are the one-target case of the same run,
// so a target's Result does not depend on which targets ran with it.
package analytics

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"twolm/internal/core"
	"twolm/internal/graph"
	"twolm/internal/imc"
	"twolm/internal/lfsr"
	"twolm/internal/mem"
	"twolm/internal/perfcounter"
)

// Config wires a kernel run on one target.
type Config struct {
	// Sys is the simulated system.
	Sys *core.System
	// G is the input graph, already placed at Layout.
	G      *graph.Graph
	Layout graph.Layout
	// AllocProp allocates property arrays; it encodes the placement
	// policy (flat in 2LM, NUMA-preferred in 1LM, DRAM-pinned for
	// Sage).
	AllocProp func(size uint64) (mem.Region, error)
	// Threads is the modeled worker count (96 in the paper's graph
	// experiments).
	Threads int

	// PRRounds bounds pagerank-push (the paper runs 100 rounds; scaled
	// runs use fewer). 0 selects the default.
	PRRounds int
	// KCoreK is the k-core parameter (paper: k=100 on billion-edge
	// graphs; scaled graphs use a k matched to their degree scale).
	KCoreK int
}

const (
	// prTolerance is the pagerank residual threshold (paper: 1e-6).
	prTolerance = 1e-6
	// maxRounds bounds iterative kernels against pathological inputs.
	maxRounds = 1000
)

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 96
	}
	if c.PRRounds <= 0 {
		c.PRRounds = 10
	}
	if c.KCoreK <= 0 {
		c.KCoreK = 10
	}
	return c
}

// Result reports one kernel execution on one target.
type Result struct {
	Kernel  string
	Elapsed float64
	Delta   imc.Counters
	Rounds  int
	// Output holds the kernel's computed answer for correctness
	// checks: []uint32 distances (bfs), []uint32 labels (cc),
	// remaining-node count (kcore), []float32 ranks (pr). The targets
	// of one Run share one Output value; treat it as read-only.
	Output any
	// Series is the per-round counter trace.
	Series *perfcounter.Series
}

// The access word: bits 0-1 hold the op, bits 2-5 the array, and bits
// 6-31 the byte offset of the accessed line within its array. A target
// adds the array's line-aligned region base, so one word names the
// same element in every placement.
const (
	opLoad uint32 = iota
	opStore
	opRMW

	opMask   uint32 = 3
	arrShift        = 2
	// maxArrays is the number of arrays the word's 4 array bits name.
	maxArrays        = 16
	lineMask  uint32 = mem.Line - 1
	// maxArrayBytes bounds an array's region so that every byte offset
	// in it fits the 32-bit word.
	maxArrayBytes = 1 << 32
)

// The arrays a kernel touches: the CSR offsets and edges, then its
// property arrays in allocation order (property k is arrProp+k).
const (
	arrOffsets uint32 = iota
	arrEdges
	arrProp
)

const (
	// chunkWords is a chunk's capacity in access words.
	chunkWords = 1 << 12
	// poolChunks is the number of chunks of a run; the kernel blocks
	// while every one of them awaits a target.
	poolChunks = 16
)

// chunk is one shipment of the access stream: n words, then, if label
// is set, the Sync that ends the round — preceded by DrainLLC when
// drain is set, which marks the kernel's last chunk.
type chunk struct {
	n     int
	label string
	drain bool
	// refs counts the targets that have not released the chunk; the
	// last release returns it to the pool.
	refs  atomic.Int32
	words [chunkWords]uint32
}

// kernel is one lonestar kernel: its name (the prefix of its Sync
// labels), the property arrays it allocates on every target, and its
// body, which computes the answer once, emits the accesses through the
// runner and returns the rounds it ran and its output.
type kernel struct {
	name  string
	props []string
	run   func(r *runner) (rounds int, output any)
}

// runner is the producing side of a run: the shared kernel parameters,
// the chunk being filled, the pool and the targets it feeds.
type runner struct {
	g        *graph.Graph
	prRounds int
	kcoreK   int

	// cur is the chunk being filled: n words so far, in words (the
	// chunk's own array, kept here for the per-access step).
	cur     *chunk
	words   *[chunkWords]uint32
	n       int
	free    chan *chunk
	targets []*target
	wg      sync.WaitGroup
	// failed is set when a target fails; the next ship unwinds the
	// kernel.
	failed atomic.Bool
}

// target is one System the accesses are simulated on. Its consumer
// goroutine owns the System from the first chunk to the end of the run.
type target struct {
	sys   *core.System
	b     *core.Batch
	bases [maxArrays]uint64 // each array's region base
	ctr0  imc.Counters
	t0    float64
	n0    int // samples before the run
	in    chan *chunk
	// res holds Elapsed, Delta and Series once the drain is applied;
	// err is a panic while applying the stream.
	res Result
	err error
}

// errAborted unwinds a kernel once a target has failed.
var errAborted = errors.New("analytics: run aborted")

// Run executes the named kernel — "bfs", "cc", "kcore" or "pr" — once
// and simulates its accesses on every target, returning one Result per
// target in target order. The targets must share G, PRRounds and
// KCoreK, which fix the computation, and have distinct Systems; their
// layouts and AllocProp place it. bfs starts at G's highest
// out-degree node. Every target's Result equals the one it would get
// running alone. A failure of any target fails the whole run.
func Run(name string, targets ...Config) ([]Result, error) {
	var k kernel
	switch name {
	case "bfs":
		k = bfs((*graph.Graph).MaxOutDegreeNode)
	case "cc":
		k = cc
	case "kcore":
		k = kcore
	case "pr":
		k = pagerank
	default:
		return nil, fmt.Errorf("analytics: unknown kernel %q", name)
	}
	return run(k, targets)
}

// one runs k on a single target.
func one(k kernel, cfg Config) (Result, error) {
	res, err := run(k, []Config{cfg})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// run checks and prepares every target, starts one consumer goroutine
// per target and runs the kernel on the calling goroutine. No
// goroutine outlives it.
func run(k kernel, cfgs []Config) ([]Result, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("analytics: %s: no targets", k.name)
	}
	cfgs = slices.Clone(cfgs)
	for i := range cfgs {
		cfgs[i] = cfgs[i].withDefaults()
		c, c0 := cfgs[i], cfgs[0]
		if c.Sys == nil || c.G == nil || c.AllocProp == nil {
			return nil, fmt.Errorf("analytics: Sys, G and AllocProp are required")
		}
		if c.G != c0.G || c.PRRounds != c0.PRRounds || c.KCoreK != c0.KCoreK {
			return nil, fmt.Errorf("analytics: target %d differs from target 0 in G, PRRounds or KCoreK", i)
		}
		for j := range i {
			if cfgs[j].Sys == c.Sys {
				return nil, fmt.Errorf("analytics: targets %d and %d share a System", j, i)
			}
		}
	}
	r := &runner{g: cfgs[0].G, prRounds: cfgs[0].PRRounds, kcoreK: cfgs[0].KCoreK}
	for _, cfg := range cfgs {
		t, err := newTarget(cfg, k)
		if err != nil {
			return nil, err
		}
		r.targets = append(r.targets, t)
	}
	// Every channel holds the whole pool, so only an empty free list
	// blocks: the kernel waits there for the slowest target.
	r.free = make(chan *chunk, poolChunks)
	for range poolChunks {
		r.free <- new(chunk)
	}
	r.take()
	for _, t := range r.targets {
		t.in = make(chan *chunk, poolChunks)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			t.consume(r)
		}()
	}
	rounds, output := r.produce(k)
	out := make([]Result, len(r.targets))
	for i, t := range r.targets {
		if t.err != nil {
			return nil, fmt.Errorf("analytics: %s: target %d: %w", k.name, i, t.err)
		}
		out[i] = t.res
		out[i].Kernel, out[i].Rounds, out[i].Output = k.name, rounds, output
	}
	return out, nil
}

// newTarget configures cfg.Sys for graph traffic, snapshots its
// counters and places k's arrays: the graph's layout and the property
// arrays it allocates.
func newTarget(cfg Config, k kernel) (*target, error) {
	sys := cfg.Sys
	sys.SetThreads(cfg.Threads)
	sys.SetTraffic(mem.Random, mem.Line)
	sys.SetStreams(4) // offsets + edges + properties + write-backs
	// Graph traversal chains dependent accesses (offset -> edges ->
	// property); deep worklists recover some parallelism across
	// activities, but nowhere near the hardware's 10+ line-fill
	// buffers.
	sys.SetMLP(3.5)
	t := &target{
		sys:  sys,
		b:    sys.Batch(),
		ctr0: sys.Counters(),
		t0:   sys.Clock(),
		n0:   sys.Series().Len(),
	}
	g := cfg.G
	if err := t.place(arrOffsets, "offsets", cfg.Layout.Offsets, uint64(len(g.Offsets))*4); err != nil {
		return nil, err
	}
	if err := t.place(arrEdges, "edges", cfg.Layout.Edges, uint64(len(g.Edges))*4); err != nil {
		return nil, err
	}
	size := uint64(g.NumNodes()) * 4 // 4 bytes per node
	for i, name := range k.props {
		reg, err := cfg.AllocProp(size)
		if err != nil {
			return nil, fmt.Errorf("analytics: allocating %s: %w", name, err)
		}
		if err := t.place(arrProp+uint32(i), name, reg, size); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// place records the region of array arr, which holds size bytes, after
// checking that access words can address it: the base is line-aligned
// and the region holds the array within the words' offset range.
func (t *target) place(arr uint32, name string, reg mem.Region, size uint64) error {
	switch {
	case reg.Base%mem.Line != 0:
		return fmt.Errorf("analytics: %s region base %#x is not line-aligned", name, reg.Base)
	case reg.Size < size:
		return fmt.Errorf("analytics: %s region of %d bytes cannot hold the %d-byte array", name, reg.Size, size)
	case reg.Size > maxArrayBytes:
		return fmt.Errorf("analytics: %s region of %d bytes overflows the access word's %d-byte offset range",
			name, reg.Size, uint64(maxArrayBytes))
	}
	t.bases[arr] = reg.Base
	return nil
}

// consume applies the chunks arriving on t.in to the target's System
// until the producer closes the channel. A panic becomes t.err and
// fails the run; the target then only releases what arrives, so the
// producer never waits on it.
func (t *target) consume(r *runner) {
	var cur *chunk
	defer func() {
		if p := recover(); p != nil {
			t.err = fmt.Errorf("panic: %v", p)
			r.failed.Store(true)
			if cur != nil {
				r.release(cur)
			}
			for c := range t.in {
				r.release(c)
			}
		}
	}()
	for c := range t.in {
		cur = c
		t.apply(c)
		cur = nil
		r.release(c)
	}
}

// apply appends a chunk's accesses to the target's batch builder, then
// runs the Sync (and the final drain) the chunk ends with.
func (t *target) apply(c *chunk) {
	b := t.b
	for _, w := range c.words[:c.n] {
		addr := t.bases[w>>arrShift&(maxArrays-1)] + uint64(w&^lineMask)
		if w&opMask == opRMW {
			b.RMW(addr)
		} else {
			b.LoadOrStore(addr, uint64(w)) // bit 0: 0 loads, 1 stores
		}
	}
	if c.label == "" {
		return
	}
	s := t.sys
	if c.drain {
		s.DrainLLC()
	}
	s.Sync(c.label, 0)
	if c.drain {
		t.res = Result{
			Elapsed: s.Clock() - t.t0,
			Delta:   s.Counters().Sub(t.ctr0),
			Series:  s.Series().Since(t.n0),
		}
	}
}

// release drops one target's hold on c, returning c to the pool when
// it was the last.
func (r *runner) release(c *chunk) {
	if c.refs.Add(-1) == 0 {
		r.free <- c
	}
}

// produce runs the kernel and ships its draining last chunk. On every
// way out — a normal return, errAborted, or a panic in the kernel,
// which it re-raises — it first closes every target's stream and waits
// for the consumers.
func (r *runner) produce(k kernel) (rounds int, output any) {
	defer func() {
		p := recover()
		for _, t := range r.targets {
			close(t.in)
		}
		r.wg.Wait()
		if p != nil && p != any(errAborted) {
			panic(p)
		}
	}()
	rounds, output = k.run(r)
	r.ship(k.name+":drain", true)
	return rounds, output
}

// ship hands the current chunk to every target, ending it with a Sync
// labeled label when label is set (and a drain first when drain is
// set), and takes the next chunk from the pool, blocking while every
// chunk awaits a target. Once a target has failed it unwinds the
// kernel instead.
func (r *runner) ship(label string, drain bool) {
	c := r.cur
	c.n, c.label, c.drain = r.n, label, drain
	c.refs.Store(int32(len(r.targets)))
	for _, t := range r.targets {
		t.in <- c
	}
	if r.failed.Load() {
		panic(errAborted)
	}
	r.take()
}

// take makes a chunk from the pool the one being filled, blocking
// while every chunk awaits a target.
func (r *runner) take() {
	r.cur = <-r.free
	r.words, r.n = &r.cur.words, 0
}

// sync ends a round: every target flushes its builder and records a
// sample labeled label.
func (r *runner) sync(label string) { r.ship(label, false) }

// emit records one access word, shipping the chunk when it fills.
func (r *runner) emit(w uint32) {
	r.words[r.n] = w
	r.n++
	if r.n == chunkWords {
		r.shipFull()
	}
}

// shipFull ships a full chunk. It is out of line so that emit, the
// per-access step, inlines.
//
//go:noinline
func (r *runner) shipFull() { r.ship("", false) }

// forEachNode visits every node once in a deterministic shuffled order
// that changes per round, the stand-in for Galois's unordered worklist
// scheduling — which is what turns the CSR scan of an over-capacity
// graph into the random miss stream the paper measures.
func (r *runner) forEachNode(round int, fn func(u uint32)) {
	n := uint64(r.g.NumNodes())
	if err := lfsr.Sequence(n, uint32(round)*2654435761+1, func(u uint64) {
		fn(uint32(u))
	}); err != nil {
		// Falls back to sequential order on generator failure (cannot
		// happen for in-range node counts).
		for u := uint64(0); u < n; u++ {
			fn(uint32(u))
		}
	}
}

// --- simulated element accesses ---------------------------------------

// The kernels record an element access as r.emit(load(arr, idx)) and
// so on: the word is built apart from emit so that both inline into
// the kernel loop, where a method combining them would not.

// load is the word of a 4-byte element load.
func load(arr, idx uint32) uint32 { return elem(arr, idx, opLoad) }

// rmw is the word of a read-modify-write of a 4-byte element (load +
// RFO + deferred writeback, coalesced on chip).
func rmw(arr, idx uint32) uint32 { return elem(arr, idx, opRMW) }

// store is the word of a 4-byte element store.
func store(arr, idx uint32) uint32 { return elem(arr, idx, opStore) }

// elem packs an access to element idx of a 4-byte array.
func elem(arr, idx, op uint32) uint32 { return idx<<2&^lineMask | arr<<arrShift | op }

// loadSpan records loads covering elements [start, end) of a 4-byte
// array — one access per cache line, the way a scan reads it.
func (r *runner) loadSpan(arr, start, end uint32) {
	if start >= end {
		return
	}
	last := uint64(end)*4 - 1
	for off := uint64(start) * 4 &^ uint64(lineMask); off <= last; off += mem.Line {
		r.emit(uint32(off) | arr<<arrShift | opLoad)
	}
}

// neighbors reads node u's degree bounds and adjacency list, recording
// the offset loads and the edge-array scan.
func (r *runner) neighbors(u uint32) []uint32 {
	r.emit(load(arrOffsets, u))
	r.emit(load(arrOffsets, u+1))
	start, end := r.g.Offsets[u], r.g.Offsets[u+1]
	r.loadSpan(arrEdges, start, end)
	return r.g.Edges[start:end]
}

// --- kernels -----------------------------------------------------------

// InfDist marks unreached nodes in BFS output.
const InfDist = math.MaxUint32

// BFS runs frontier-based breadth-first search from src and returns
// the distance array.
func BFS(cfg Config, src uint32) (Result, error) {
	return one(bfs(func(*graph.Graph) uint32 { return src }), cfg)
}

// bfs is breadth-first search from the node source picks.
func bfs(source func(*graph.Graph) uint32) kernel {
	return kernel{name: "bfs", props: []string{"dist"}, run: func(r *runner) (int, any) {
		const distArr = arrProp
		src := source(r.g)
		n := r.g.NumNodes()
		dist := make([]uint32, n)
		for i := range dist {
			dist[i] = InfDist
		}
		dist[src] = 0
		r.emit(store(distArr, src))

		frontier := []uint32{src}
		level := uint32(0)
		rounds := 0
		for len(frontier) > 0 && rounds < maxRounds {
			level++
			rounds++
			var next []uint32
			for _, u := range frontier {
				for _, v := range r.neighbors(u) {
					r.emit(load(distArr, v))
					if dist[v] == InfDist {
						dist[v] = level
						r.emit(store(distArr, v))
						next = append(next, v)
					}
				}
			}
			frontier = next
			r.sync(fmt.Sprintf("bfs:level%d", level))
		}
		return rounds, dist
	}}
}

// CC runs label-propagation connected components (over the directed
// edges treated as undirected via symmetric propagation) and returns
// the label array.
func CC(cfg Config) (Result, error) { return one(cc, cfg) }

var cc = kernel{name: "cc", props: []string{"labels"}, run: func(r *runner) (int, any) {
	const labArr = arrProp
	n := r.g.NumNodes()
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	rounds := 0
	for changed := true; changed && rounds < maxRounds; {
		changed = false
		rounds++
		r.forEachNode(rounds, func(u uint32) {
			lu := labels[u]
			r.emit(load(labArr, u))
			for _, v := range r.neighbors(u) {
				r.emit(load(labArr, v))
				switch {
				case labels[v] < lu:
					lu = labels[v]
				case labels[v] > lu:
					// Symmetric propagation: push the smaller label
					// out along the edge.
					labels[v] = lu
					r.emit(store(labArr, v))
					changed = true
				}
			}
			if lu != labels[u] {
				labels[u] = lu
				r.emit(store(labArr, u))
				changed = true
			}
		})
		r.sync(fmt.Sprintf("cc:round%d", rounds))
	}
	return rounds, labels
}}

// KCore peels nodes of degree < k until a fixed point and returns the
// number of nodes remaining in the k-core.
func KCore(cfg Config) (Result, error) { return one(kcore, cfg) }

var kcore = kernel{name: "kcore", props: []string{"degrees"}, run: func(r *runner) (int, any) {
	const degArr = arrProp
	k := r.kcoreK
	n := r.g.NumNodes()
	deg := make([]int32, n)
	alive := make([]bool, n)
	var worklist []uint32
	for u := 0; u < n; u++ {
		d := int32(r.g.OutDegree(uint32(u)))
		deg[u] = d
		alive[u] = true
		r.emit(store(degArr, uint32(u)))
		if d < int32(k) {
			worklist = append(worklist, uint32(u))
		}
	}
	r.sync("kcore:init")

	rounds := 0
	for len(worklist) > 0 && rounds < maxRounds {
		rounds++
		var next []uint32
		for _, u := range worklist {
			if !alive[u] {
				continue
			}
			alive[u] = false
			for _, v := range r.neighbors(u) {
				if !alive[v] {
					continue
				}
				r.emit(rmw(degArr, v))
				deg[v]--
				if deg[v] == int32(k)-1 {
					next = append(next, v)
				}
			}
		}
		worklist = next
		r.sync(fmt.Sprintf("kcore:round%d", rounds))
	}
	remaining := 0
	for _, a := range alive {
		if a {
			remaining++
		}
	}
	return rounds, remaining
}}

// PRAlpha is the pagerank damping factor.
const PRAlpha = 0.85

// PageRank runs residual-based pagerank-push for cfg.PRRounds rounds
// (or until all residuals drop below tolerance) and returns the rank
// array. Pushes mutate the residual array in place — the write-heavy
// access pattern the paper identifies as pathological under 2LM.
func PageRank(cfg Config) (Result, error) { return one(pagerank, cfg) }

var pagerank = kernel{name: "pr", props: []string{"ranks", "residuals"}, run: func(r *runner) (int, any) {
	const rankArr, resArr = arrProp, arrProp + 1
	n := r.g.NumNodes()
	rank := make([]float32, n)
	residual := make([]float32, n)
	for i := range residual {
		residual[i] = 1 - PRAlpha
		r.emit(store(resArr, uint32(i)))
	}
	r.sync("pr:init")

	tol := float32(prTolerance)
	rounds := 0
	for ; rounds < r.prRounds; rounds++ {
		active := 0
		r.forEachNode(rounds+1, func(u uint32) {
			r.emit(load(resArr, u))
			res := residual[u]
			if res <= tol {
				return
			}
			active++
			rank[u] += res
			r.emit(rmw(rankArr, u))
			residual[u] = 0
			r.emit(store(resArr, u))
			nbrs := r.neighbors(u)
			if len(nbrs) == 0 {
				return
			}
			share := res * PRAlpha / float32(len(nbrs))
			for _, v := range nbrs {
				residual[v] += share
				r.emit(rmw(resArr, v))
			}
		})
		r.sync(fmt.Sprintf("pr:round%d", rounds+1))
		if active == 0 {
			rounds++
			break
		}
	}
	return rounds, rank
}}
