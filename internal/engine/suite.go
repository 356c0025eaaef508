// The paper-reproduction suite expressed as pool jobs. Each job wraps
// one experiment family from internal/experiments and returns its
// outputs as named artifacts; cmd/repro only decides where the bytes
// go. Job granularity follows the experiments' natural units (one
// figure or table each, the whole graph study as one job since its
// figures share a Study). The pool overlaps jobs; inside a job, the
// experiments run their independent simulations concurrently too
// (Figures 2 and 4, Table II, co-design, embeddings, the graph study
// and the associativity ablation), so a long job is not one serial
// critical path even on a single pool worker.
//
// Artifact names — and the job order, which fixes the report order —
// are part of the repository's output contract: they must match the
// file names EXPERIMENTS.md documents, whether the suite runs on one
// worker or many.
//
// The jobs whose experiments carry a paper claim (Table I, Figures 4a,
// 4b and 5, Table II, the graph study) run them inside a claim cell of
// the run's scope (see Shared), which keeps only the small fact the
// claim needs. The closing claims check reads those cells, so within
// one run no experiment is simulated twice; run on its own, it computes
// each missing fact itself.
//
// The CNN jobs (Figures 5, 6 and 10, Table II, the associativity
// ablation and co-design) read one experiments.DenseNet, kept in
// another cell of the run's scope: Figure 6, the ablation's
// direct-mapped row and the 2LM reference of Table II and co-design
// read the Figure 5 iteration, and Table II and co-design read the
// Figure 10 one, each simulated once per run by whichever job needs it
// first.

package engine

import (
	"context"
	"fmt"

	"twolm/internal/experiments"
	"twolm/internal/results"
)

// SuiteConfig carries the per-family experiment configurations.
type SuiteConfig struct {
	Micro experiments.MicroConfig
	CNN   experiments.CNNConfig
	Graph experiments.GraphConfig
	Embed experiments.EmbedConfig
	Multi MultiChannelConfig
}

// DefaultSuiteConfig returns the full-study configuration at the given
// footprint scale; quick shrinks footprints for a fast sanity pass
// (scale 8192, smaller graphs), matching the historical -quick flag.
func DefaultSuiteConfig(scale uint64, quick bool) SuiteConfig {
	cfg := SuiteConfig{
		Micro: experiments.DefaultMicroConfig(),
		CNN:   experiments.DefaultCNNConfig(),
		Graph: experiments.DefaultGraphConfig(),
		Embed: experiments.DefaultEmbedConfig(),
		Multi: DefaultMultiChannelConfig(),
	}
	cfg.Micro.Scale = scale
	cfg.CNN.Scale = scale
	if quick {
		cfg.Micro.Scale = 8192
		cfg.CNN.Scale = 8192
		cfg.Graph.Scale = 16384
		cfg.Graph.SmallScale = 14
		cfg.Graph.LargeScale = 19
		cfg.Graph.PRRounds = 3
		cfg.Embed.Scale = 16384
		cfg.Embed.Model.RowsPerTable = 1 << 15
	}
	return cfg
}

// tableJob wraps a single-table experiment as a job with one artifact
// named like the experiment.
func tableJob(name string, fn func() (*results.Table, error)) Job {
	return Job{Name: name, Run: func(context.Context) ([]Artifact, error) {
		t, err := fn()
		if err != nil {
			return nil, err
		}
		return []Artifact{{Name: name, Table: t}}, nil
	}}
}

// cnnJob is tableJob for an experiment that reads the run's DenseNet
// 264 study.
func cnnJob(name string, cnn experiments.CNNConfig, fn func(*experiments.DenseNet) (*results.Table, error)) Job {
	return Job{Name: name, Run: func(ctx context.Context) ([]Artifact, error) {
		d, err := denseNet(ctx, cnn)
		if err != nil {
			return nil, err
		}
		t, err := fn(d)
		if err != nil {
			return nil, err
		}
		return []Artifact{{Name: name, Table: t}}, nil
	}}
}

// claimCell names a per-run cell holding one fact the claims check
// reads from a sibling job's experiment.
type claimCell string

const (
	cellC1        claimCell = "C1"
	cellBestRead  claimCell = "C2-read"
	cellBestWrite claimCell = "C2-write"
	cellC3        claimCell = "C3"
	cellC4        claimCell = "C4"
	cellC5        claimCell = "C5"
)

// claimSource runs one claim-bearing experiment and returns its job's
// artifacts together with the fact the claims check keeps from it.
type claimSource[F any] func() ([]Artifact, F, error)

// produce is a claim-bearing job's body: it runs src inside cell key,
// so the claims check of the same run reads the fact instead of
// running the experiment again. The cell keeps only the fact, never
// the artifacts or the result behind them; should the claims check
// have filled the cell first, src runs again here for the artifacts.
func produce[F any](ctx context.Context, key claimCell, src claimSource[F]) ([]Artifact, error) {
	var arts []Artifact
	ran := false
	_, err := Shared(ctx, key, func() (F, error) {
		ran = true
		var f F
		var err error
		arts, f, err = src()
		return f, err
	})
	if !ran && ctx.Err() == nil {
		arts, _, err = src()
	}
	return arts, err
}

// consume returns the fact of cell key, running src itself when no
// job of this run has.
func consume[F any](ctx context.Context, key claimCell, src claimSource[F]) (F, error) {
	return Shared(ctx, key, func() (F, error) {
		_, f, err := src()
		return f, err
	})
}

func table1Source(micro experiments.MicroConfig) claimSource[experiments.Claim] {
	return func() ([]Artifact, experiments.Claim, error) {
		t, err := experiments.Table1(micro)
		if err != nil {
			return nil, experiments.Claim{}, err
		}
		return []Artifact{{Name: "table1_access_amplification", Table: t}}, experiments.ClaimC1(t), nil
	}
}

// fig4Source's fact is the panel's best effective bandwidth.
func fig4Source(name string, fig func(experiments.MicroConfig) (*results.Table, []experiments.Fig4Row, error), micro experiments.MicroConfig) claimSource[float64] {
	return func() ([]Artifact, float64, error) {
		t, rows, err := fig(micro)
		if err != nil {
			return nil, 0, err
		}
		return []Artifact{{Name: name, Table: t}}, experiments.BestEffective(rows), nil
	}
}

// denseNetCell is the key of the per-run cell holding the DenseNet 264
// study every CNN job reads (see experiments.DenseNet).
type denseNetCell struct{}

// denseNet returns the DenseNet 264 study of the run ctx belongs to,
// made on first use; outside RunJobs every call makes a fresh one.
func denseNet(ctx context.Context, cnn experiments.CNNConfig) (*experiments.DenseNet, error) {
	return Shared(ctx, denseNetCell{}, func() (*experiments.DenseNet, error) {
		return experiments.NewDenseNet(cnn), nil
	})
}

func fig5Source(ctx context.Context, cnn experiments.CNNConfig) claimSource[experiments.Claim] {
	return func() ([]Artifact, experiments.Claim, error) {
		d, err := denseNet(ctx, cnn)
		if err != nil {
			return nil, experiments.Claim{}, err
		}
		r, err := experiments.Fig5(d)
		if err != nil {
			return nil, experiments.Claim{}, err
		}
		return []Artifact{
			{Name: "fig5_densenet_summary", Table: r.Summary},
			{Name: "fig5d_densenet_liveness", Table: r.Liveness},
			{Name: "fig5d_heatmap", Text: r.Heatmap.String()},
			{Name: "fig5_densenet_trace", Series: r.Trace},
		}, experiments.ClaimC3(r), nil
	}
}

func table2Source(ctx context.Context, cnn experiments.CNNConfig) claimSource[experiments.Claim] {
	return func() ([]Artifact, experiments.Claim, error) {
		d, err := denseNet(ctx, cnn)
		if err != nil {
			return nil, experiments.Claim{}, err
		}
		t, rows, err := experiments.Table2(d)
		if err != nil {
			return nil, experiments.Claim{}, err
		}
		return []Artifact{{Name: "table2_cnn_2lm_vs_autotm", Table: t}}, experiments.ClaimC4(rows), nil
	}
}

// graphSource runs the graph case study: Figures 7, 8, 9 and the Sage
// table, all from a single Study's runs.
func graphSource(gcfg experiments.GraphConfig) claimSource[experiments.Claim] {
	return func() ([]Artifact, experiments.Claim, error) {
		study, err := experiments.RunGraphStudy(gcfg)
		if err != nil {
			return nil, experiments.Claim{}, err
		}
		small, large := study.Fig9Traces()
		return []Artifact{
			{Name: "fig7_graph_kernels_2lm", Table: study.Fig7()},
			{Name: "fig8_data_moved", Table: study.Fig8()},
			{Name: "fig9_pagerank_traces", Table: study.Fig9()},
			{Name: "fig9a_pr_" + study.Small.Name, Series: small},
			{Name: "fig9bc_pr_" + study.Large.Name, Series: large},
			{Name: "sage_vs_2lm", Table: study.SageTable()},
		}, experiments.ClaimC5(study), nil
	}
}

// checkClaims evaluates claims C1-C5 from the run's claim cells, in
// claim order; the first experiment error ends it. With no run scope
// in ctx it runs every experiment itself.
func checkClaims(ctx context.Context, micro experiments.MicroConfig, cnn experiments.CNNConfig, gcfg experiments.GraphConfig) ([]experiments.Claim, error) {
	c1, err := consume(ctx, cellC1, table1Source(micro))
	if err != nil {
		return nil, err
	}
	bestR, err := consume(ctx, cellBestRead, fig4Source("fig4a_read_clean_miss", experiments.Fig4a, micro))
	if err != nil {
		return nil, err
	}
	bestW, err := consume(ctx, cellBestWrite, fig4Source("fig4b_write_dirty_miss", experiments.Fig4b, micro))
	if err != nil {
		return nil, err
	}
	c3, err := consume(ctx, cellC3, fig5Source(ctx, cnn))
	if err != nil {
		return nil, err
	}
	c4, err := consume(ctx, cellC4, table2Source(ctx, cnn))
	if err != nil {
		return nil, err
	}
	c5, err := consume(ctx, cellC5, graphSource(gcfg))
	if err != nil {
		return nil, err
	}
	return []experiments.Claim{c1, experiments.ClaimC2(bestR, bestW), c3, c4, c5}, nil
}

// claimsErr fails the claims check on its first failed claim.
func claimsErr(claims []experiments.Claim) error {
	for _, c := range claims {
		if !c.Pass {
			return fmt.Errorf("claim %s (%s): measured %s, expected %s",
				c.ID, c.Text, c.Measured, c.Expected)
		}
	}
	return nil
}

// Suite assembles the full reproduction as a job list. Job order is
// the report order (microbenchmarks, CNN, graphs, ablations, claims);
// RunJobs preserves it regardless of worker count. The list holds no
// run state: every RunJobs call over it starts from empty claim cells.
func Suite(cfg SuiteConfig) []Job {
	micro, cnn, gcfg, embed := cfg.Micro, cfg.CNN, cfg.Graph, cfg.Embed
	return []Job{
		// Microbenchmarks: Table I, Figures 2 and 4.
		tableJob("fig2a_nvram_read_bw", func() (*results.Table, error) { return experiments.Fig2a(micro) }),
		tableJob("fig2b_nvram_write_bw", func() (*results.Table, error) { return experiments.Fig2b(micro) }),
		{Name: "table1_access_amplification", Run: func(ctx context.Context) ([]Artifact, error) {
			return produce(ctx, cellC1, table1Source(micro))
		}},
		{Name: "fig4a_read_clean_miss", Run: func(ctx context.Context) ([]Artifact, error) {
			return produce(ctx, cellBestRead, fig4Source("fig4a_read_clean_miss", experiments.Fig4a, micro))
		}},
		{Name: "fig4b_write_dirty_miss", Run: func(ctx context.Context) ([]Artifact, error) {
			return produce(ctx, cellBestWrite, fig4Source("fig4b_write_dirty_miss", experiments.Fig4b, micro))
		}},
		tableJob("fig4c_rmw_ddo", func() (*results.Table, error) {
			t, _, err := experiments.Fig4c(micro)
			return t, err
		}),

		// CNN case study: Figures 5, 6, 10 and Table II.
		{Name: "fig5_densenet", Run: func(ctx context.Context) ([]Artifact, error) {
			return produce(ctx, cellC3, fig5Source(ctx, cnn))
		}},
		cnnJob("fig6_dense_block_kernels", cnn, experiments.Fig6),
		{Name: "fig10_autotm", Run: func(ctx context.Context) ([]Artifact, error) {
			d, err := denseNet(ctx, cnn)
			if err != nil {
				return nil, err
			}
			r, err := experiments.Fig10(d)
			if err != nil {
				return nil, err
			}
			return []Artifact{
				{Name: "fig10_autotm_phases", Table: r.PhaseTable},
				{Name: "fig10_autotm_trace", Series: r.Trace},
			}, nil
		}},
		{Name: "table2_cnn_2lm_vs_autotm", Run: func(ctx context.Context) ([]Artifact, error) {
			return produce(ctx, cellC4, table2Source(ctx, cnn))
		}},

		// Graph case study: Figures 7, 8, 9 and the Sage table. One job:
		// the figures share a single Study's runs.
		{Name: "graph_study", Run: func(ctx context.Context) ([]Artifact, error) {
			return produce(ctx, cellC5, graphSource(gcfg))
		}},

		// Ablations and co-design.
		tableJob("ablation_ddo", func() (*results.Table, error) { return experiments.AblationDDO(micro) }),
		tableJob("ablation_write_policy", func() (*results.Table, error) { return experiments.AblationWritePolicy(micro) }),
		cnnJob("ablation_associativity", cnn, func(d *experiments.DenseNet) (*results.Table, error) {
			return experiments.AblationAssociativity(d, nil)
		}),
		cnnJob("codesign_dma", cnn, experiments.CoDesign),
		tableJob("embedding_dlrm", func() (*results.Table, error) { return experiments.EmbedStudy(embed) }),

		// Engine self-check: a line-interleaved channel split reproduces
		// serial counters.
		tableJob("multichannel_sharding", func() (*results.Table, error) { return MultiChannel(cfg.Multi) }),

		// Final acceptance pass: the paper's claims, re-verified on this
		// run's experiments. A failed claim fails the job (and with it
		// the suite).
		{Name: "claims_check", Run: func(ctx context.Context) ([]Artifact, error) {
			claims, err := checkClaims(ctx, micro, cnn, gcfg)
			if err != nil {
				return nil, err
			}
			return []Artifact{{Name: "claims_check", Table: experiments.ClaimsTable(claims)}}, claimsErr(claims)
		}},
	}
}
