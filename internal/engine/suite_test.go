package engine

import (
	"bytes"
	"context"
	"testing"

	"twolm/internal/experiments"
	"twolm/internal/results"
)

// tinySuiteConfig shrinks every experiment family so the whole suite
// runs in about a second. Claims may fail at this scale; the tests
// below compare bytes, not PASS.
func tinySuiteConfig() SuiteConfig {
	cfg := DefaultSuiteConfig(1<<16, false)
	cfg.Micro.Threads = []int{1, 8}
	cfg.Micro.Granularities = []int{64, 256}
	cfg.Graph = experiments.GraphConfig{
		Scale: 1 << 16, SmallScale: 10, SmallEdgeFactor: 8, LargeScale: 14, LargeEdgeFactor: 14,
		Threads: 96, PRRounds: 2, KCoreK: 8, Seed: 1,
	}
	cfg.Embed.Scale = 1 << 16
	cfg.Embed.Model.Tables = 2
	cfg.Embed.Model.RowsPerTable = 1 << 12
	cfg.Embed.Steps = 2
	cfg.Multi.Scale = 1 << 16
	return cfg
}

// claimsBytes renders a claims table as cmd/repro writes it, .txt then
// .csv, followed by the job's error text.
func claimsBytes(t *testing.T, table *results.Table, err error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if table == nil {
		t.Fatalf("no claims table (err %v)", err)
	}
	if werr := table.Fprint(&buf); werr != nil {
		t.Fatal(werr)
	}
	if werr := table.WriteCSV(&buf); werr != nil {
		t.Fatal(werr)
	}
	if err != nil {
		buf.WriteString(err.Error())
	}
	return buf.Bytes()
}

// claimsOutcome returns the claims_check outcome's bytes.
func claimsOutcome(t *testing.T, outs []Outcome) []byte {
	t.Helper()
	o := outs[len(outs)-1]
	if o.Job != "claims_check" || len(o.Artifacts) != 1 {
		t.Fatalf("last outcome %q has %d artifacts, want claims_check with 1 (err %v)", o.Job, len(o.Artifacts), o.Err)
	}
	return claimsBytes(t, o.Artifacts[0].Table, o.Err)
}

// TestClaimsCheckSameBytesEveryPath: the claims check reads its facts
// from sibling jobs when the suite runs (serially or on a pool) and
// computes them itself when run alone; all three, and the standalone
// experiments.CheckClaims, produce the same table and error text.
func TestClaimsCheckSameBytesEveryPath(t *testing.T) {
	cfg := tinySuiteConfig()
	jobs := Suite(cfg)

	table, claims, err := experiments.CheckClaims(cfg.Micro, cfg.CNN, cfg.Graph)
	if err != nil {
		t.Fatal(err)
	}
	want := claimsBytes(t, table, claimsErr(claims))

	cases := map[string][]Outcome{
		"suite on 1 worker":  RunJobs(jobs, 1),
		"suite on 4 workers": RunJobs(jobs, 4),
		"claims_check alone": RunJobs(jobs[len(jobs)-1:], 1),
	}
	for name, outs := range cases {
		if got := claimsOutcome(t, outs); !bytes.Equal(got, want) {
			t.Errorf("%s: claims bytes differ from experiments.CheckClaims\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestDefaultSuiteConfigQuick pins the footprints of both suite
// geometries: -scale sets the microbenchmark and CNN footprints, and
// quick overrides every family with the sanity-pass shape whatever the
// scale.
func TestDefaultSuiteConfigQuick(t *testing.T) {
	full := DefaultSuiteConfig(2048, false)
	if full.Micro.Scale != 2048 || full.CNN.Scale != 2048 ||
		full.Graph != experiments.DefaultGraphConfig() || full.Embed.Scale != experiments.DefaultEmbedConfig().Scale {
		t.Errorf("DefaultSuiteConfig(2048, false) = %+v", full)
	}
	q := DefaultSuiteConfig(64, true)
	g := q.Graph
	if q.Micro.Scale != 8192 || q.CNN.Scale != 8192 ||
		g.Scale != 16384 || g.SmallScale != 14 || g.LargeScale != 19 || g.PRRounds != 3 ||
		q.Embed.Scale != 16384 || q.Embed.Model.RowsPerTable != 1<<15 {
		t.Errorf("DefaultSuiteConfig(64, true) = %+v, want the sanity-pass shape", q)
	}
	if q.Multi != DefaultMultiChannelConfig() {
		t.Errorf("quick multichannel config = %+v, want the default", q.Multi)
	}
}

// TestSuiteBuildAllocs pins the cost of building the job list, which
// perfbench times as the reproduction's set-up: the claim cells live in
// each run's scope, not in the list.
func TestSuiteBuildAllocs(t *testing.T) {
	cfg := DefaultSuiteConfig(8192, true)
	if n := testing.AllocsPerRun(20, func() { Suite(cfg) }); n > 34 {
		t.Errorf("Suite allocates %.0f times, want <= 34", n)
	}
}

// TestClaimCellRunsSourceOnce: in one run, a producer and the claims
// check run the experiment once between them; a claims check alone
// runs it itself; and a producer that finds its cell already filled
// runs it again for its artifacts, since the cell holds only the fact.
func TestClaimCellRunsSourceOnce(t *testing.T) {
	var runs int
	src := claimSource[int](func() ([]Artifact, int, error) {
		runs++
		return []Artifact{{Name: "table", Text: "t"}}, 42, nil
	})
	producer := Job{Name: "producer", Run: func(ctx context.Context) ([]Artifact, error) {
		return produce(ctx, "cell", src)
	}}
	var fact int
	consumer := Job{Name: "claims", Run: func(ctx context.Context) ([]Artifact, error) {
		var err error
		fact, err = consume(ctx, "cell", src)
		return nil, err
	}}
	for _, c := range []struct {
		name string
		jobs []Job
		runs int
	}{
		{"producer then claims", []Job{producer, consumer}, 1},
		{"claims alone", []Job{consumer}, 1},
		{"claims then producer", []Job{consumer, producer}, 2},
	} {
		runs, fact = 0, 0
		outs := RunJobs(c.jobs, 1)
		if err := FirstError(outs); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if runs != c.runs || fact != 42 {
			t.Errorf("%s: source ran %d times (want %d), fact %d", c.name, runs, c.runs, fact)
		}
		for _, o := range outs {
			if o.Job == "producer" && len(o.Artifacts) != 1 {
				t.Errorf("%s: producer returned %d artifacts, want 1", c.name, len(o.Artifacts))
			}
		}
	}
}
