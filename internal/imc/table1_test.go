package imc

import (
	"testing"

	"twolm/internal/cache"
)

// TestTable1Rows checks the reference rows against the paper's Table I
// amplification column: reads 1/3/4, writes 2/4/5, DDO 1, and one tag
// event per demand row.
func TestTable1Rows(t *testing.T) {
	want := map[outcome]float64{
		readHit: 1, readMissClean: 3, readMissDirty: 4,
		writeHit: 2, writeMissClean: 4, writeMissDirty: 5,
		writeDDO: 1,
		// The ablation columns: one DRAM tag read plus one NVRAM access.
		readBypass: 2, writeAround: 2,
	}
	for o, amp := range want {
		d := rows[o].delta
		if got := d.Amplification(); got != amp {
			t.Errorf("outcome %d: amplification %.0f, want %.0f (%v)", o, got, amp, d)
		}
		if d.Demand() != 1 || d.TagAccesses() != 1 {
			t.Errorf("outcome %d: %d demand requests and %d tag events, want 1 and 1", o, d.Demand(), d.TagAccesses())
		}
	}
	if got := rows[flushWrite].delta; got != (Counters{NVRAMWrite: 1}) {
		t.Errorf("flush row = {%v}, want one NVRAM write", got)
	}
	if len(want)+1 != int(nOutcomes) {
		t.Errorf("checked %d outcomes of %d", len(want)+1, nOutcomes)
	}
}

// TestDecide pins Figure 3 for every policy and every resident word
// state, written out case by case rather than derived.
func TestDecide(t *testing.T) {
	const tag = 7
	word := func(tg uint32, flags uint64) uint64 { return cache.PackEntry(tg, cache.EntryValid|flags) }
	own, dirty := cache.EntryLLCOwned, cache.EntryDirty
	states := []struct {
		name string
		w    uint64
	}{
		{"invalid", 0},
		{"invalid-stale-tag", cache.PackEntry(tag, dirty|own)},
		{"clean-hit", word(tag, 0)},
		{"dirty-hit", word(tag, dirty)},
		{"owned-hit", word(tag, own)},
		{"owned-dirty-hit", word(tag, dirty|own)},
		{"clean-miss", word(tag+1, 0)},
		{"dirty-miss", word(tag+1, dirty)},
		{"owned-miss", word(tag+1, own)},
		{"owned-dirty-miss", word(tag+1, dirty|own)},
	}
	// Expected [read, write] outcome per state, per policy.
	hw := map[string][2]outcome{
		"invalid":           {readMissClean, writeMissClean},
		"invalid-stale-tag": {readMissClean, writeMissClean},
		"clean-hit":         {readHit, writeHit},
		"dirty-hit":         {readHit, writeHit},
		"owned-hit":         {readHit, writeDDO},
		"owned-dirty-hit":   {readHit, writeDDO},
		"clean-miss":        {readMissClean, writeMissClean},
		"dirty-miss":        {readMissDirty, writeMissDirty},
		"owned-miss":        {readMissClean, writeMissClean},
		"owned-dirty-miss":  {readMissDirty, writeMissDirty},
	}
	noRA := map[string][2]outcome{
		"invalid":           {readBypass, writeMissClean},
		"invalid-stale-tag": {readBypass, writeMissClean},
		"clean-hit":         {readHit, writeHit},
		"dirty-hit":         {readHit, writeHit},
		"owned-hit":         {readHit, writeDDO},
		"owned-dirty-hit":   {readHit, writeDDO},
		"clean-miss":        {readBypass, writeMissClean},
		"dirty-miss":        {readBypass, writeMissDirty},
		"owned-miss":        {readBypass, writeMissClean},
		"owned-dirty-miss":  {readBypass, writeMissDirty},
	}
	noWA := map[string][2]outcome{
		"invalid":           {readMissClean, writeAround},
		"invalid-stale-tag": {readMissClean, writeAround},
		"clean-hit":         {readHit, writeHit},
		"dirty-hit":         {readHit, writeHit},
		"owned-hit":         {readHit, writeDDO},
		"owned-dirty-hit":   {readHit, writeDDO},
		"clean-miss":        {readMissClean, writeAround},
		"dirty-miss":        {readMissDirty, writeAround},
		"owned-miss":        {readMissClean, writeAround},
		"owned-dirty-miss":  {readMissDirty, writeAround},
	}
	noDDO := map[string][2]outcome{
		"invalid":           {readMissClean, writeMissClean},
		"invalid-stale-tag": {readMissClean, writeMissClean},
		"clean-hit":         {readHit, writeHit},
		"dirty-hit":         {readHit, writeHit},
		"owned-hit":         {readHit, writeHit},
		"owned-dirty-hit":   {readHit, writeHit},
		"clean-miss":        {readMissClean, writeMissClean},
		"dirty-miss":        {readMissDirty, writeMissDirty},
		"owned-miss":        {readMissClean, writeMissClean},
		"owned-dirty-miss":  {readMissDirty, writeMissDirty},
	}
	policies := rangeTestPolicies()
	for name, want := range map[string]map[string][2]outcome{
		"hardware": hw, "no-read-allocate": noRA, "no-write-allocate": noWA, "ddo-off": noDDO,
	} {
		p := policies[name]
		for _, st := range states {
			for i, write := range []bool{false, true} {
				if got := decide(&p, st.w, tag, write); got != want[st.name][i] {
					t.Errorf("%s, %s, write=%v: decide = %d, want %d", name, st.name, write, got, want[st.name][i])
				}
			}
		}
	}
}
