// Claims check: the paper's headline findings as an executable
// acceptance harness. cmd/repro runs it last and writes a PASS/FAIL
// table, so a reader can see at a glance that the reproduction still
// exhibits every result the paper reports — the living equivalent of
// EXPERIMENTS.md's narrative.
//
// Each claim is a pure function of one experiment's result, so a
// caller that already ran the experiment evaluates the claim without
// simulating anything again; CheckClaims is the standalone path that
// runs the experiments itself.

package experiments

import (
	"fmt"

	"twolm/internal/results"
)

// Claim is one verifiable paper finding.
type Claim struct {
	ID       string
	Text     string
	Expected string
	Measured string
	Pass     bool
}

// CheckClaims evaluates every headline claim at the given scales and
// returns the table plus the claims for programmatic use.
func CheckClaims(micro MicroConfig, cnn CNNConfig, graphs GraphConfig) (*results.Table, []Claim, error) {
	t1, err := Table1(micro)
	if err != nil {
		return nil, nil, err
	}
	_, rows4a, err := Fig4a(micro)
	if err != nil {
		return nil, nil, err
	}
	_, rows4b, err := Fig4b(micro)
	if err != nil {
		return nil, nil, err
	}
	fig5, err := Fig5(cnn)
	if err != nil {
		return nil, nil, err
	}
	_, t2rows, err := Table2(cnn)
	if err != nil {
		return nil, nil, err
	}
	study, err := RunGraphStudy(graphs)
	if err != nil {
		return nil, nil, err
	}
	claims := []Claim{
		ClaimC1(t1),
		ClaimC2(BestEffective(rows4a), BestEffective(rows4b)),
		ClaimC3(fig5),
		ClaimC4(t2rows),
		ClaimC5(study),
	}
	return ClaimsTable(claims), claims, nil
}

// ClaimC1: "A single demand request can require up to 5 memory
// accesses" — the largest amplification in Table I.
func ClaimC1(t1 *results.Table) Claim {
	maxAmp := 0.0
	for _, row := range t1.Rows {
		var v float64
		fmt.Sscanf(row[5], "%f", &v)
		if v > maxAmp {
			maxAmp = v
		}
	}
	return Claim{"C1", "a demand request can require up to 5 memory accesses",
		"max amplification = 5", fmt.Sprintf("%.2f", maxAmp), maxAmp > 4.99 && maxAmp < 5.01}
}

// BestEffective returns the highest effective bandwidth (GB/s) among a
// Figure 4 panel's rows: the fact claim C2 reads from each panel.
func BestEffective(rows []Fig4Row) float64 {
	best := 0.0
	for _, r := range rows {
		if r.Effective > best {
			best = r.Effective
		}
	}
	return best
}

// ClaimC2: "Highest NVRAM read bandwidth in 2LM ... 60% [of 1LM];
// write ... 72%" (Section IV-D; our model lands at ~77%/71%), from the
// best effective bandwidths of Figure 4a (reads) and 4b (writes).
func ClaimC2(bestRead, bestWrite float64) Claim {
	readFrac, writeFrac := bestRead/30.6, bestWrite/10.6
	return Claim{"C2", "2LM reaches only a fraction of the NVRAM's 1LM bandwidth",
		"read 60-85%, write 60-85% of device peak",
		fmt.Sprintf("read %.0f%%, write %.0f%%", 100*readFrac, 100*writeFrac),
		readFrac > 0.6 && readFrac < 0.85 && writeFrac > 0.6 && writeFrac < 0.85}
}

// ClaimC3: CNN training misses are dominated by dirty misses (Figure
// 5b observations).
func ClaimC3(fig5 *Fig5Result) Claim {
	ctr := fig5.Exec.Counters
	dirtyShare := float64(ctr.TagMissDirty) / float64(ctr.TagMissDirty+ctr.TagMissClean)
	return Claim{"C3", "CNN training misses are overwhelmingly dirty (dead-data write-backs)",
		"dirty share > 0.9", fmt.Sprintf("%.3f", dirtyShare), dirtyShare > 0.9}
}

// ClaimC4: AutoTM beats 2LM 1.8-3.1x with ~50-60% of the NVRAM
// traffic (Table II).
func ClaimC4(t2rows []Table2Row) Claim {
	okSpeedups := len(t2rows) == 3
	var dn, iv float64
	for _, r := range t2rows {
		if r.Speedup < 1.5 || r.Speedup > 4 || r.NVRatio < 0.3 || r.NVRatio > 0.8 {
			okSpeedups = false
		}
		switch r.Network {
		case "densenet264":
			dn = r.Speedup
		case "inceptionv4":
			iv = r.Speedup
		}
	}
	return Claim{"C4", "software management (AutoTM) wins 1.8-3.1x, most on DenseNet",
		"speedups in [1.5, 4], DenseNet > Inception, NVRAM traffic 30-80%",
		fmt.Sprintf("densenet %.2fx, inception %.2fx", dn, iv),
		okSpeedups && dn > iv}
}

// ClaimC5: over-capacity graph inputs amplify data movement vs the
// NUMA baseline, and Sage placement removes NVRAM writes (Figures 7-8
// and the Sage table).
func ClaimC5(study *Study) Claim {
	okGraphs := true
	worstAmp := 0.0
	for _, kernel := range KernelNames {
		numa := study.find(study.Large.Name, ModeNUMA, kernel)
		twolm := study.find(study.Large.Name, Mode2LMFlat, kernel)
		sg := study.find(study.Large.Name, ModeSage, kernel)
		if numa == nil || twolm == nil || sg == nil {
			okGraphs = false
			continue
		}
		ratio := float64(twolm.Result.Delta.MemoryAccesses()) / float64(numa.Result.Delta.MemoryAccesses())
		if ratio <= 1 {
			okGraphs = false
		}
		if ratio > worstAmp {
			worstAmp = ratio
		}
		if sg.Result.Delta.NVRAMWrite != 0 {
			okGraphs = false
		}
	}
	return Claim{"C5", "2LM amplifies graph data movement vs NUMA; Sage placement writes no NVRAM",
		"2LM/NUMA > 1 for every kernel; Sage NVRAM writes = 0",
		fmt.Sprintf("worst 2LM/NUMA %.2fx", worstAmp), okGraphs}
}

// ClaimsTable renders the claims as the PASS/FAIL acceptance table.
func ClaimsTable(claims []Claim) *results.Table {
	table := results.NewTable("Claims check: the paper's findings, re-verified on this build",
		"id", "claim", "expected", "measured", "pass")
	for _, c := range claims {
		pass := "PASS"
		if !c.Pass {
			pass = "FAIL"
		}
		table.AddRow(c.ID, c.Text, c.Expected, c.Measured, pass)
	}
	return table
}
