package experiments

import (
	"testing"
)

// TestScaleInvariance is the integration check behind DESIGN.md's
// scaling argument: amplification factors, hit rates, and speedup
// ratios must not depend on the footprint scale, because counting
// properties of a direct-mapped cache under a linear allocator are
// invariant to uniform scaling.
func TestScaleInvarianceMicro(t *testing.T) {
	var amps [2][]float64
	for i, scale := range []uint64{8192, 32768} {
		cfg := testMicroConfig()
		cfg.Scale = scale
		table, err := Table1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := range table.Rows {
			amps[i] = append(amps[i], cell(t, table.Rows, r, 5))
		}
	}
	for r := range amps[0] {
		if amps[0][r] != amps[1][r] {
			t.Errorf("Table I row %d amplification changed with scale: %.3f vs %.3f",
				r, amps[0][r], amps[1][r])
		}
	}
}

// TestScaleInvarianceCNN: DenseNet's hit rate and dirty-miss share are
// scale-independent (within the granularity the smaller run affords).
func TestScaleInvarianceCNN(t *testing.T) {
	get := func(scale uint64) (hit, dirtyShare, speedup float64) {
		cfg := testCNNConfig()
		cfg.Scale = scale
		dense := NewDenseNet(cfg)
		_, rows, err := Table2(dense)
		if err != nil {
			t.Fatal(err)
		}
		var dn Table2Row
		for _, r := range rows {
			if r.Network == "densenet264" {
				dn = r
			}
		}
		res, err := Fig5(dense)
		if err != nil {
			t.Fatal(err)
		}
		ctr := res.Exec.Counters
		return ctr.HitRate(),
			float64(ctr.TagMissDirty) / float64(ctr.TagMissDirty+ctr.TagMissClean),
			dn.Speedup
	}
	hitA, dirtyA, spA := get(8192)
	hitB, dirtyB, spB := get(16384)
	if diff := hitA - hitB; diff > 0.03 || diff < -0.03 {
		t.Errorf("hit rate drifted with scale: %.3f vs %.3f", hitA, hitB)
	}
	if diff := dirtyA - dirtyB; diff > 0.02 || diff < -0.02 {
		t.Errorf("dirty-miss share drifted with scale: %.3f vs %.3f", dirtyA, dirtyB)
	}
	if ratio := spA / spB; ratio > 1.15 || ratio < 0.87 {
		t.Errorf("AutoTM speedup drifted with scale: %.2f vs %.2f", spA, spB)
	}
}
