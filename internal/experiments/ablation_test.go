package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"twolm/internal/compiler"
	"twolm/internal/imc"
)

// TestAblationDDO: disabling the optimization adds one DRAM read per
// writeback (amplification 2.5 -> 3.0 on the RMW workload) and zeroes
// the DDO counter.
func TestAblationDDO(t *testing.T) {
	table, err := AblationDDO(testMicroConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	ampOn := cell(t, table.Rows, 0, 4)
	ampOff := cell(t, table.Rows, 1, 4)
	if ampOn < 2.49 || ampOn > 2.51 {
		t.Errorf("DDO-enabled amplification = %.2f, want 2.5", ampOn)
	}
	if ampOff < 2.99 || ampOff > 3.01 {
		t.Errorf("DDO-disabled amplification = %.2f, want 3.0", ampOff)
	}
	if table.Rows[1][5] != "0" {
		t.Errorf("disabled run recorded DDO hits: %s", table.Rows[1][5])
	}
	// Disabled run pays double the DRAM reads.
	if r0, r1 := cell(t, table.Rows, 0, 1), cell(t, table.Rows, 1, 1); r1 < 1.9*r0 {
		t.Errorf("disabled DRAM reads %.2f not ~2x enabled %.2f", r1, r0)
	}
}

// TestAblationWritePolicy: write-around removes the fill reads and the
// insert writes, dropping amplification from 5 to 2, while the NVRAM
// write ceiling still binds the effective bandwidth.
func TestAblationWritePolicy(t *testing.T) {
	table, err := AblationWritePolicy(testMicroConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	ampHW := cell(t, table.Rows, 0, 6)
	ampWA := cell(t, table.Rows, 1, 6)
	if ampHW < 4.99 || ampHW > 5.01 {
		t.Errorf("hardware amplification = %.2f, want 5", ampHW)
	}
	if ampWA < 1.99 || ampWA > 2.01 {
		t.Errorf("write-around amplification = %.2f, want 2", ampWA)
	}
	// Write-around removes all NVRAM reads and DRAM writes.
	if v := cell(t, table.Rows, 1, 3); v != 0 {
		t.Errorf("write-around NVRAM reads = %.2f, want 0", v)
	}
	if v := cell(t, table.Rows, 1, 2); v != 0 {
		t.Errorf("write-around DRAM writes = %.2f, want 0", v)
	}
}

// TestAblationAssociativity: DenseNet's 2LM misses are capacity and
// lifetime misses, not conflicts — so extra ways must NOT meaningfully
// help. That null result is the ablation's point: it confirms the
// paper's claim that the pathology is the cache's ignorance of data
// lifetimes, which no associativity fixes.
func TestAblationAssociativity(t *testing.T) {
	table, err := AblationAssociativity(NewDenseNet(testCNNConfig()), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	rt1 := cell(t, table.Rows, 0, 1)
	rt4 := cell(t, table.Rows, 1, 1)
	improvement := rt1 / rt4
	if improvement > 1.1 {
		t.Errorf("4-way associativity improved DenseNet %.2fx — conflicts should not dominate", improvement)
	}
	hit1 := cell(t, table.Rows, 0, 2)
	hit4 := cell(t, table.Rows, 1, 2)
	if hit4 < hit1-0.01 {
		t.Errorf("more ways reduced the hit rate: %.3f -> %.3f", hit1, hit4)
	}
}

// TestAblationAssociativityBaseIsDirectMapped: vs_direct_mapped
// divides by the Ways=1 run wherever it sits in ways. The real runs
// differ by less than the column's two decimals, so the DenseNet is
// seeded with a direct-mapped iteration that took half as long.
func TestAblationAssociativityBaseIsDirectMapped(t *testing.T) {
	d := NewDenseNet(testCNNConfig())
	plan, err := d.densePlan()
	if err != nil {
		t.Fatal(err)
	}
	measured, err := d.simulate2LM(plan, imc.HardwarePolicy())
	if err != nil {
		t.Fatal(err)
	}
	fast := *measured
	fast.Elapsed /= 2
	if _, err := d.twoLM.get("seed", func() (*compiler.ExecResult, error) { return &fast, nil }); err != nil {
		t.Fatal(err)
	}
	table, err := AblationAssociativity(d, []int{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 || table.Rows[0][0] != "4" || table.Rows[1][0] != "1" {
		t.Fatalf("rows = %v, want ways 4 then 1", table.Rows)
	}
	if got := table.Rows[1][5]; got != "1.00x" {
		t.Errorf("Ways=1 vs_direct_mapped = %s, want 1.00x", got)
	}
	rt1, rt4 := cell(t, table.Rows, 1, 1), cell(t, table.Rows, 0, 1)
	if got, want := table.Rows[0][5], fmt.Sprintf("%.2fx", rt1/rt4); got != want {
		t.Errorf("Ways=4 vs_direct_mapped = %s, want %s (runtime %.2f s direct-mapped, %.2f s 4-way)", got, want, rt1, rt4)
	}
}

// TestCoDesign: the paper's closing argument quantified — a current
// I/O-class DMA engine underperforms CPU copies, a co-designed mover
// beats them, and everything beats the 2LM hardware cache.
func TestCoDesign(t *testing.T) {
	table, err := CoDesign(NewDenseNet(testCNNConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	byName := map[string]float64{}
	for _, row := range table.Rows {
		rt, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		byName[row[0]] = rt
	}
	twolm := byName["2LM hardware cache"]
	cpu := byName["AutoTM, CPU sync copies"]
	ioat := byName["AutoTM + I/OAT-class DMA"]
	future := byName["AutoTM + co-designed DMA"]
	if cpu >= twolm {
		t.Errorf("AutoTM CPU (%.1f) not faster than 2LM (%.1f)", cpu, twolm)
	}
	if ioat <= cpu {
		t.Errorf("I/OAT-class engine (%.1f) should be SLOWER than CPU copies (%.1f): its bandwidth does not fit", ioat, cpu)
	}
	if future >= cpu {
		t.Errorf("co-designed engine (%.1f) not faster than CPU copies (%.1f)", future, cpu)
	}
	// Async movement must not change traffic volumes.
	for _, row := range table.Rows {
		if strings.HasPrefix(row[0], "AutoTM") {
			if r, w := row[2], row[3]; r != table.Rows[1][2] || w != table.Rows[1][3] {
				t.Errorf("%s changed NVRAM traffic: %s/%s", row[0], r, w)
			}
		}
	}
}
