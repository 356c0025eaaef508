// Package sage reproduces the Sage-style semi-asymmetric placement
// (Dhulipala et al., VLDB'20) the paper offers as the graph-side
// software mitigation (Section VII-A-2): run the system in app-direct
// (1LM) mode, keep the large graph structure *read-only in NVRAM*, and
// keep all mutable per-node state in a compact DRAM-resident auxiliary
// structure. Mutation then never generates NVRAM write traffic, which
// sidesteps both NVRAM's low write bandwidth and the 2LM cache's write
// amplification.
package sage

import (
	"fmt"

	"twolm/internal/analytics"
	"twolm/internal/core"
	"twolm/internal/graph"
)

// Session holds a graph placed semi-asymmetrically on a 1LM system.
type Session struct {
	Sys    *core.System
	G      *graph.Graph
	Layout graph.Layout
}

// New places g on sys: CSR arrays pinned in NVRAM, leaving DRAM for
// the mutable auxiliaries. sys must be in app-direct mode.
func New(sys *core.System, g *graph.Graph) (*Session, error) {
	if sys.Mode() != core.Mode1LM {
		return nil, fmt.Errorf("sage: requires a 1LM (app-direct) system, got %v", sys.Mode())
	}
	layout, err := g.Place(sys.AddressSpace().AllocNVRAM)
	if err != nil {
		return nil, err
	}
	return &Session{Sys: sys, G: g, Layout: layout}, nil
}

// Config builds the kernel configuration for any analytics kernel:
// the graph's NVRAM layout, with properties allocated from DRAM only —
// Sage's defining invariant.
func (s *Session) Config(base analytics.Config) analytics.Config {
	base.Sys = s.Sys
	base.G = s.G
	base.Layout = s.Layout
	base.AllocProp = s.Sys.AddressSpace().AllocDRAM
	return base
}

// BFS runs breadth-first search with DRAM-resident distances.
func (s *Session) BFS(base analytics.Config, src uint32) (analytics.Result, error) {
	return analytics.BFS(s.Config(base), src)
}

// CC runs connected components with DRAM-resident labels.
func (s *Session) CC(base analytics.Config) (analytics.Result, error) {
	return analytics.CC(s.Config(base))
}

// KCore runs k-core decomposition with DRAM-resident degree counters.
func (s *Session) KCore(base analytics.Config) (analytics.Result, error) {
	return analytics.KCore(s.Config(base))
}

// PageRank runs pagerank-push with DRAM-resident ranks and residuals.
func (s *Session) PageRank(base analytics.Config) (analytics.Result, error) {
	return analytics.PageRank(s.Config(base))
}
