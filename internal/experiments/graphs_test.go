package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"twolm/internal/graph"
	"twolm/internal/results"
)

// testGraphConfig keeps the study fast: a tiny fits-in-cache Kronecker
// input and a small over-capacity web-like input.
func testGraphConfig() GraphConfig {
	return GraphConfig{
		Scale:           32768,
		SmallScale:      12,
		SmallEdgeFactor: 8,
		LargeScale:      18,
		LargeEdgeFactor: 14,
		Threads:         96,
		PRRounds:        3,
		KCoreK:          8,
		Seed:            1,
	}
}

// runStudy caches the study across tests (it is deterministic).
var cachedStudy *Study

func getStudy(t *testing.T) *Study {
	t.Helper()
	if cachedStudy != nil {
		return cachedStudy
	}
	s, err := RunGraphStudy(testGraphConfig())
	if err != nil {
		t.Fatal(err)
	}
	cachedStudy = s
	return s
}

func TestStudySizesStraddleCache(t *testing.T) {
	s := getStudy(t)
	cache := s.Config.Scale // platform divisor
	_ = cache
	dramCache := uint64(2) * 6 * (32 << 30) / s.Config.Scale // 2 sockets
	if s.Small.Bytes() >= dramCache/2 {
		t.Errorf("small graph %d B should fit well inside the %d B cache", s.Small.Bytes(), dramCache)
	}
	if s.Large.Bytes() <= dramCache {
		t.Errorf("large graph %d B should exceed the %d B cache", s.Large.Bytes(), dramCache)
	}
}

func TestStudyRunsComplete(t *testing.T) {
	s := getStudy(t)
	// 4 kernels x (small-2LM, large-2LM, large-NUMA, large-Sage).
	if len(s.Runs) != 16 {
		t.Fatalf("runs = %d, want 16", len(s.Runs))
	}
	for _, r := range s.Runs {
		if r.Result.Elapsed <= 0 {
			t.Errorf("%s/%s/%s: no elapsed time", r.Graph, r.Mode, r.Kernel)
		}
		if r.Result.Delta.Demand() == 0 {
			t.Errorf("%s/%s/%s: no traffic", r.Graph, r.Mode, r.Kernel)
		}
	}
}

// TestFig7HitRateContrast: the fits-in-cache graph must enjoy a higher
// DRAM-cache hit rate than the over-capacity one for the iterative
// kernels (single-pass bfs is dominated by cold misses at test scale).
func TestFig7HitRateContrast(t *testing.T) {
	s := getStudy(t)
	for _, kernel := range []string{"cc", "kcore", "pr"} {
		small := s.find(s.Small.Name, Mode2LMFlat, kernel)
		large := s.find(s.Large.Name, Mode2LMFlat, kernel)
		if small == nil || large == nil {
			t.Fatalf("missing runs for %s", kernel)
		}
		if small.HitRate <= large.HitRate {
			t.Errorf("%s: small-graph hit rate %.3f not above large-graph %.3f",
				kernel, small.HitRate, large.HitRate)
		}
	}
}

// TestFig7NVRAMTraffic: the over-capacity graph generates real NVRAM
// traffic, including write-backs of mutated state; the fitting graph
// generates almost none after warmup.
func TestFig7NVRAMTraffic(t *testing.T) {
	s := getStudy(t)
	large := s.find(s.Large.Name, Mode2LMFlat, "pr")
	if large.Result.Delta.NVRAMWrite == 0 {
		t.Error("over-capacity pagerank produced no NVRAM write-backs")
	}
	if large.Result.Delta.TagMissDirty == 0 {
		t.Error("over-capacity pagerank produced no dirty misses")
	}
	small := s.find(s.Small.Name, Mode2LMFlat, "pr")
	ratio := float64(small.Result.Delta.NVRAMWrite+1) / float64(large.Result.Delta.NVRAMWrite+1)
	if ratio > 0.3 {
		t.Errorf("fitting graph NVRAM writes too close to over-capacity: ratio %.2f", ratio)
	}
}

// TestFig8Amplification: 2LM moves more total data than the NUMA
// baseline for every kernel (the paper's "significant access
// amplification").
func TestFig8Amplification(t *testing.T) {
	s := getStudy(t)
	table := s.Fig8()
	if len(table.Rows) != 4 {
		t.Fatalf("Fig8 rows = %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		ratio, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio <= 1.0 {
			t.Errorf("%s: 2LM/NUMA data-moved ratio %.2f not above 1", row[0], ratio)
		}
		if ratio > 5 {
			t.Errorf("%s: ratio %.2f implausibly large", row[0], ratio)
		}
	}
}

// TestFig9TraceShape: per-round pagerank samples exist for both
// graphs, and only the over-capacity graph shows tag misses in steady
// state.
func TestFig9TraceShape(t *testing.T) {
	s := getStudy(t)
	smallTr, largeTr := s.Fig9Traces()
	if smallTr == nil || largeTr == nil {
		t.Fatal("missing pagerank traces")
	}
	// Steady-state (last round) samples.
	smallLast := smallTr.Samples()[smallTr.Len()-2] // before drain
	largeLast := largeTr.Samples()[largeTr.Len()-2]
	smallMisses := smallLast.Delta.TagMissClean + smallLast.Delta.TagMissDirty
	largeMisses := largeLast.Delta.TagMissClean + largeLast.Delta.TagMissDirty
	if largeMisses == 0 {
		t.Error("over-capacity steady state shows no tag misses")
	}
	if smallMisses > largeMisses/10 {
		t.Errorf("fitting graph steady-state misses %d too close to over-capacity %d", smallMisses, largeMisses)
	}
}

// TestSageBeats2LM: the semi-asymmetric placement wins on the
// over-capacity graph and generates zero NVRAM writes.
func TestSageBeats2LM(t *testing.T) {
	s := getStudy(t)
	for _, kernel := range KernelNames {
		twolm := s.find(s.Large.Name, Mode2LMFlat, kernel)
		sg := s.find(s.Large.Name, ModeSage, kernel)
		if sg.Result.Delta.NVRAMWrite != 0 {
			t.Errorf("%s: Sage produced %d NVRAM writes", kernel, sg.Result.Delta.NVRAMWrite)
		}
		if sg.Result.Elapsed >= twolm.Result.Elapsed {
			t.Errorf("%s: Sage (%.4fs) not faster than 2LM (%.4fs)",
				kernel, sg.Result.Elapsed, twolm.Result.Elapsed)
		}
	}
}

// TestKernelsProduceSameAnswersAcrossModes: placement must never
// change algorithm output.
func TestKernelsProduceSameAnswersAcrossModes(t *testing.T) {
	s := getStudy(t)
	for _, kernel := range []string{"bfs", "cc"} {
		twolm := s.find(s.Large.Name, Mode2LMFlat, kernel)
		numa := s.find(s.Large.Name, ModeNUMA, kernel)
		sg := s.find(s.Large.Name, ModeSage, kernel)
		a := twolm.Result.Output.([]uint32)
		b := numa.Result.Output.([]uint32)
		c := sg.Result.Output.([]uint32)
		for i := range a {
			if a[i] != b[i] || a[i] != c[i] {
				t.Fatalf("%s: outputs diverge at %d: %d/%d/%d", kernel, i, a[i], b[i], c[i])
			}
		}
	}
}

func TestFig7TableRenders(t *testing.T) {
	s := getStudy(t)
	if len(s.Fig7().Rows) != 8 {
		t.Errorf("Fig7 rows = %d, want 8", len(s.Fig7().Rows))
	}
	if s.Fig9() == nil || s.SageTable() == nil {
		t.Error("missing tables")
	}
}

// TestGraphStudySameAtAnyParallelism: the study's runs execute
// concurrently, yet every run, and every figure rendered from them,
// must be the same on one worker as on four.
func TestGraphStudySameAtAnyParallelism(t *testing.T) {
	study := func(procs int) *Study {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := RunGraphStudy(testGraphConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, parallel := study(1), study(4)
	if !reflect.DeepEqual(serial.Runs, parallel.Runs) {
		t.Fatal("Study.Runs differ between GOMAXPROCS 1 and 4")
	}
	for _, k := range []struct {
		name string
		fig  func(*Study) *results.Table
	}{
		{"fig7", (*Study).Fig7},
		{"fig8", (*Study).Fig8},
		{"fig9", (*Study).Fig9},
		{"sage", (*Study).SageTable},
	} {
		var a, b bytes.Buffer
		if err := k.fig(serial).WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := k.fig(parallel).WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s table differs between GOMAXPROCS 1 and 4", k.name)
		}
	}
}

// TestRunKernelRejectsUnknownKernel: every mode dispatches through
// runOne, so a misspelled kernel is an error in Sage mode too.
func TestRunKernelRejectsUnknownKernel(t *testing.T) {
	g, err := graph.Kronecker(6, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testGraphConfig().withDefaults()
	for _, mode := range []GraphMode{Mode2LMFlat, ModeNUMA, ModeSage} {
		_, err := cfg.runKernel(g, mode, "sssp")
		if err == nil || !strings.Contains(err.Error(), `unknown kernel "sssp"`) {
			t.Errorf("%s: err = %v, want unknown kernel", mode, err)
		}
	}
	if _, err := cfg.runKernel(g, "CXL", "bfs"); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestDispatchOrderLongestFirst: the large graph's runs start first,
// pagerank before cc, bfs and kcore, and the small graph's last.
func TestDispatchOrderLongestFirst(t *testing.T) {
	small, large := &graph.Graph{Edges: make([]uint32, 1)}, &graph.Graph{Edges: make([]uint32, 2)}
	var cells []graphCell
	for _, g := range []*graph.Graph{small, large} {
		for _, kernel := range KernelNames {
			cells = append(cells, graphCell{g, Mode2LMFlat, kernel})
		}
	}
	// KernelNames is bfs, cc, kcore, pr: small graph 0-3, large 4-7.
	want := []int{7, 5, 4, 6, 3, 1, 0, 2}
	if got := dispatchOrder(cells); !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order %v, want %v", got, want)
	}
}
