package graph

import (
	"testing"

	"twolm/internal/mem"
)

func TestFromEdgesBuildsValidCSR(t *testing.T) {
	src := []uint32{0, 0, 1, 2, 2, 2}
	dst := []uint32{1, 2, 2, 0, 1, 3}
	g, err := FromEdges("tiny", 4, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 6 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 1 || g.OutDegree(2) != 3 || g.OutDegree(3) != 0 {
		t.Errorf("degrees wrong: %v", g.Offsets)
	}
	nbrs := g.Neighbors(2)
	if len(nbrs) != 3 || nbrs[0] != 0 || nbrs[1] != 1 || nbrs[2] != 3 {
		t.Errorf("neighbors of 2 = %v, want sorted [0 1 3]", nbrs)
	}
}

func TestFromEdgesRejectsBadInput(t *testing.T) {
	if _, err := FromEdges("x", 2, []uint32{0}, []uint32{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromEdges("x", 2, []uint32{5}, []uint32{0}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := FromEdges("x", 2, []uint32{0}, []uint32{5}); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestKroneckerShape(t *testing.T) {
	g, err := Kronecker(10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1024 {
		t.Errorf("nodes = %d, want 1024", g.NumNodes())
	}
	if g.NumEdges() != 8*1024 {
		t.Errorf("edges = %d, want 8192", g.NumEdges())
	}
	// R-MAT produces a skewed degree distribution: the max-degree node
	// should far exceed the average degree.
	maxDeg := g.OutDegree(g.MaxOutDegreeNode())
	if maxDeg < 4*8 {
		t.Errorf("max degree %d not skewed (avg 8)", maxDeg)
	}
}

func TestKroneckerDeterministic(t *testing.T) {
	a, _ := Kronecker(8, 4, 7)
	b, _ := Kronecker(8, 4, 7)
	if a.Bytes() != b.Bytes() || a.Offsets[100] != b.Offsets[100] {
		t.Error("same seed produced different graphs")
	}
	c, _ := Kronecker(8, 4, 8)
	same := true
	for i := range a.Edges {
		if i < len(c.Edges) && a.Edges[i] != c.Edges[i] {
			same = false
			break
		}
	}
	if same && len(a.Edges) == len(c.Edges) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestKroneckerRejectsBadParams(t *testing.T) {
	if _, err := Kronecker(0, 8, 1); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := Kronecker(31, 8, 1); err == nil {
		t.Error("scale 31 accepted")
	}
	if _, err := Kronecker(8, 0, 1); err == nil {
		t.Error("edge factor 0 accepted")
	}
}

func TestWebLikeShape(t *testing.T) {
	g, err := WebLike(10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1024 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() == 0 {
		t.Error("no edges")
	}
}

func TestBytesMatchesCSRSize(t *testing.T) {
	g, _ := Kronecker(8, 4, 1)
	want := uint64(len(g.Offsets)+len(g.Edges)) * 4
	if g.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", g.Bytes(), want)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g, _ := Kronecker(6, 4, 1)
	g.Edges[0] = uint32(g.NumNodes() + 5)
	if err := g.Validate(); err == nil {
		t.Error("out-of-range edge accepted")
	}
	g2, _ := Kronecker(6, 4, 1)
	g2.Offsets[3] = g2.Offsets[4] + 1
	if err := g2.Validate(); err == nil {
		t.Error("non-monotone offsets accepted")
	}
}

func TestPlaceAndAddrs(t *testing.T) {
	g, _ := Kronecker(6, 4, 1)
	next := uint64(0x1000)
	alloc := func(size uint64) (mem.Region, error) {
		r := mem.Region{Base: next, Size: mem.AlignUp(size, mem.Line)}
		next += r.Size
		return r, nil
	}
	l, err := g.Place(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if l.Offsets.End() > l.Edges.Base {
		t.Error("regions overlap")
	}
}

func TestMaxOutDegreeNode(t *testing.T) {
	g, _ := FromEdges("t", 3, []uint32{0, 1, 1, 1}, []uint32{1, 0, 2, 2})
	if got := g.MaxOutDegreeNode(); got != 1 {
		t.Errorf("MaxOutDegreeNode = %d, want 1", got)
	}
}
