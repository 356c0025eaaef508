package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// testCNNConfig shrinks footprints for the test suite while keeping
// the footprint >> DRAM-cache relationship.
func testCNNConfig() CNNConfig {
	return CNNConfig{
		Scale:          8192,
		DenseNetBatch:  1664,
		ResNetBatch:    1792,
		InceptionBatch: 3584,
		Warmup:         1,
	}
}

func TestCompileNetworkNames(t *testing.T) {
	cfg := testCNNConfig()
	for _, name := range []string{"densenet264", "resnet200", "inceptionv4"} {
		plan, err := cfg.CompileNetwork(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Footprint exceeds 650 GB unscaled, per the paper's setup.
		if gb := cfg.unscaleGB(plan.HeapSize); gb < 600 {
			t.Errorf("%s footprint = %.0f GB unscaled, want > 650", name, gb)
		}
	}
	if _, err := cfg.CompileNetwork("vgg16"); err == nil {
		t.Error("unknown network accepted")
	}
}

// TestFig5Shape: the DenseNet 2LM iteration must show the paper's
// Figure 5 signatures: dirty misses dominate clean misses, and the
// overall hit rate is well below 1.
func TestFig5Shape(t *testing.T) {
	res, err := Fig5(NewDenseNet(testCNNConfig()))
	if err != nil {
		t.Fatal(err)
	}
	ctr := res.Exec.Counters
	if ctr.TagMissDirty < 5*ctr.TagMissClean {
		t.Errorf("dirty misses (%d) should dwarf clean misses (%d) — paper Fig 5b observation (1)",
			ctr.TagMissDirty, ctr.TagMissClean)
	}
	if hr := ctr.HitRate(); hr > 0.95 || hr < 0.3 {
		t.Errorf("hit rate %.3f outside the mixed-phase regime", hr)
	}
	if res.Trace.Len() == 0 || res.Liveness == nil || len(res.Liveness.Rows) == 0 {
		t.Error("missing trace or liveness artifacts")
	}
	// NVRAM write traffic must be substantial (dirty write-backs of
	// dead data) — comparable to NVRAM reads.
	if ctr.NVRAMWrite < ctr.NVRAMRead/2 {
		t.Errorf("NVRAM writes (%d) unexpectedly small vs reads (%d)", ctr.NVRAMWrite, ctr.NVRAMRead)
	}
}

// TestFig6ConcatAndBatchNormAreBottlenecks: within dense-block kernels,
// the memory-bound Concat/BatchNorm take longer per byte than convs.
func TestFig6ConcatAndBatchNormAreBottlenecks(t *testing.T) {
	table, err := Fig6(NewDenseNet(testCNNConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) == 0 {
		t.Fatal("empty Figure 6 table")
	}
	var concatDur, convDur float64
	for _, row := range table.Rows {
		dur, _ := strconv.ParseFloat(row[len(row)-1], 64)
		switch {
		case row[1] == "Concat":
			if dur > concatDur {
				concatDur = dur
			}
		case strings.HasPrefix(row[1], "Conv1x1"):
			if dur > convDur {
				convDur = dur
			}
		}
	}
	if concatDur == 0 {
		t.Fatal("no Concat kernel in the snapshot")
	}
	if concatDur <= convDur {
		t.Errorf("Concat (%.1f ms) should outlast Conv1x1 (%.1f ms)", concatDur, convDur)
	}
}

// TestFig10PhaseSeparation: AutoTM writes NVRAM only in the forward
// pass and reads it only in the backward pass.
func TestFig10PhaseSeparation(t *testing.T) {
	res, err := Fig10(NewDenseNet(testCNNConfig()))
	if err != nil {
		t.Fatal(err)
	}
	rows := res.PhaseTable.Rows
	if len(rows) != 2 {
		t.Fatalf("phase table rows = %d", len(rows))
	}
	fwdR, _ := strconv.ParseFloat(rows[0][1], 64)
	fwdW, _ := strconv.ParseFloat(rows[0][2], 64)
	bwdR, _ := strconv.ParseFloat(rows[1][1], 64)
	bwdW, _ := strconv.ParseFloat(rows[1][2], 64)
	if fwdW == 0 || bwdR == 0 {
		t.Errorf("missing stash/restore traffic: fwdW=%.1f bwdR=%.1f", fwdW, bwdR)
	}
	if bwdW > fwdW*0.25 {
		t.Errorf("backward writes %.1f GB not concentrated forward (%.1f GB)", bwdW, fwdW)
	}
	if fwdR > bwdR*0.5 {
		t.Errorf("forward reads %.1f GB not concentrated backward (%.1f GB)", fwdR, bwdR)
	}
}

// TestTable2Shape: the paper's Table II relationships —
// AutoTM wins on every network, by more on DenseNet than Inception,
// with 40-70% of the NVRAM traffic and comparable DRAM traffic.
func TestTable2Shape(t *testing.T) {
	_, rows, err := Table2(NewDenseNet(testCNNConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Network] = r
		if r.Speedup <= 1.3 {
			t.Errorf("%s: AutoTM speedup %.2f <= 1.3", r.Network, r.Speedup)
		}
		if r.Speedup > 5 {
			t.Errorf("%s: AutoTM speedup %.2f implausibly large", r.Network, r.Speedup)
		}
		if r.NVRatio < 0.3 || r.NVRatio > 0.8 {
			t.Errorf("%s: NVRAM traffic ratio %.2f outside [0.3, 0.8] (paper: 50-60%%)", r.Network, r.NVRatio)
		}
		dramRatio := (r.AutoTM.DRAMReadGB + r.AutoTM.DRAMWriteGB) /
			(r.TwoLM.DRAMReadGB + r.TwoLM.DRAMWriteGB)
		if dramRatio < 0.7 || dramRatio > 1.3 {
			t.Errorf("%s: DRAM traffic ratio %.2f should be ~1 (paper: similar)", r.Network, dramRatio)
		}
	}
	// Ordering: DenseNet benefits most, Inception least (paper: 3.1x,
	// 2.2x, 1.8x).
	if !(byName["densenet264"].Speedup > byName["resnet200"].Speedup &&
		byName["resnet200"].Speedup > byName["inceptionv4"].Speedup) {
		t.Errorf("speedup ordering broken: densenet %.2f, resnet %.2f, inception %.2f",
			byName["densenet264"].Speedup, byName["resnet200"].Speedup, byName["inceptionv4"].Speedup)
	}
}
