package mem

import (
	"testing"
	"testing/quick"
)

func TestRegionEnd(t *testing.T) {
	r := Region{Base: 128, Size: 256}
	if got := r.End(); got != 384 {
		t.Errorf("End() = %d, want 384", got)
	}
}

func TestRegionLines(t *testing.T) {
	cases := []struct {
		size uint64
		want uint64
	}{
		{0, 0},
		{1, 1},
		{63, 1},
		{64, 1},
		{65, 2},
		{128, 2},
		{1024, 16},
	}
	for _, c := range cases {
		r := Region{Base: 0, Size: c.size}
		if got := r.Lines(); got != c.want {
			t.Errorf("Region{Size: %d}.Lines() = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Base: 100, Size: 50}
	for _, tc := range []struct {
		addr uint64
		want bool
	}{
		{99, false}, {100, true}, {149, true}, {150, false}, {0, false},
	} {
		if got := r.Contains(tc.addr); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.addr, got, tc.want)
		}
	}
}

func TestAlignUp(t *testing.T) {
	cases := []struct {
		n, align, want uint64
	}{
		{0, 64, 0},
		{1, 64, 64},
		{63, 64, 64},
		{64, 64, 64},
		{65, 64, 128},
		{100, 8, 104},
	}
	for _, c := range cases {
		if got := AlignUp(c.n, c.align); got != c.want {
			t.Errorf("AlignUp(%d, %d) = %d, want %d", c.n, c.align, got, c.want)
		}
	}
}

func TestAlignUpProperties(t *testing.T) {
	f := func(n uint32) bool {
		got := AlignUp(uint64(n), Line)
		return got >= uint64(n) && got%Line == 0 && got-uint64(n) < Line
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || WriteNT.String() != "write-nt" {
		t.Errorf("unexpected AccessKind strings: %v %v %v", Read, Write, WriteNT)
	}
	if AccessKind(99).String() == "" {
		t.Error("unknown AccessKind should still render")
	}
}

func TestPatternString(t *testing.T) {
	if Sequential.String() != "sequential" || Random.String() != "random" || InterleavedSeq.String() != "interleaved-seq" {
		t.Errorf("unexpected Pattern strings")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{KiB, "1.0 KiB"},
		{MiB + MiB/2, "1.5 MiB"},
		{GiB, "1.0 GiB"},
		{3 * TiB, "3.0 TiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestLineShiftConsistent(t *testing.T) {
	if 1<<LineShift != Line {
		t.Fatalf("LineShift %d inconsistent with Line %d", LineShift, Line)
	}
}
