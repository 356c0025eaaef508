// Embedding (DLRM-style) case study — the recommendation-engine
// workload the paper's introduction motivates for NVRAM capacity,
// evaluated the same way as the main case studies: hardware-managed
// 2LM against Bandana-style software placement.

package experiments

import (
	"fmt"

	"twolm/internal/core"
	"twolm/internal/embed"
	"twolm/internal/mem"
	"twolm/internal/platform"
	"twolm/internal/results"
)

// EmbedConfig parameterizes the embedding study.
type EmbedConfig struct {
	// Scale is the platform footprint divisor.
	Scale uint64
	// Model overrides the embedding model; zero-valued fields take the
	// calibrated defaults sized against the scaled DRAM.
	Model embed.Config
	// Steps is the measured step count per run.
	Steps int
}

// DefaultEmbedConfig sizes the tables at ~4x the scaled DRAM.
func DefaultEmbedConfig() EmbedConfig {
	return EmbedConfig{
		Scale: 4096,
		Model: embed.DefaultConfig(),
		Steps: 8,
	}
}

func (c EmbedConfig) withDefaults() EmbedConfig {
	d := DefaultEmbedConfig()
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if c.Model.Tables == 0 {
		c.Model = d.Model
	}
	if c.Steps == 0 {
		c.Steps = d.Steps
	}
	return c
}

// EmbedStudy runs inference and training with both placements and
// returns the comparison table. Each run builds its own system and
// model, so the four runs execute concurrently: slot 2w+p holds
// workload w (inference, training) under placement p (2LM, software).
func EmbedStudy(cfg EmbedConfig) (*results.Table, error) {
	cfg = cfg.withDefaults()
	table := results.NewTable(
		fmt.Sprintf("Embedding tables (DLRM-style), %s model: 2LM vs software placement",
			mem.FormatBytes(cfg.Model.TotalBytes())),
		"workload", "placement", "lookups_per_s", "hit_rate", "nvram_read", "nvram_write", "speedup")

	workloads := []string{"inference", "training"}
	placements := []embed.Placement{embed.Flat2LM, embed.SoftwareManaged}
	runs, err := runSlots(len(workloads)*len(placements), nil, func(i int) (embed.Result, error) {
		workload, placement := workloads[i/len(placements)], placements[i%len(placements)]
		model := cfg.Model
		model.Train = workload == "training"
		mode := core.Mode2LM
		if placement == embed.SoftwareManaged {
			mode = core.Mode1LM
		}
		sys, err := core.New(core.Config{
			Platform: platform.CascadeLake(1, cfg.Scale, 24),
			Mode:     mode,
		})
		if err != nil {
			return embed.Result{}, err
		}
		m, err := embed.New(sys, model, placement)
		if err != nil {
			return embed.Result{}, fmt.Errorf("embed study (%s/%v): %w", workload, placement, err)
		}
		return m.Run(cfg.Steps)
	})
	if err != nil {
		return nil, err
	}

	for i, res := range runs {
		placement := placements[i%len(placements)]
		speedup := ""
		if placement != embed.Flat2LM && res.Elapsed > 0 {
			// Relative to the workload's 2LM run, its first slot.
			speedup = fmt.Sprintf("%.2fx", runs[i-i%len(placements)].Elapsed/res.Elapsed)
		}
		table.AddRow(workloads[i/len(placements)], placement.String(),
			res.LookupsPerSecond()/1e6,
			res.Counters.HitRate(),
			fmt.Sprint(res.Counters.NVRAMRead),
			fmt.Sprint(res.Counters.NVRAMWrite),
			speedup)
	}
	return table, nil
}
