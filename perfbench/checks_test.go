package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"twolm/internal/engine"
	"twolm/internal/jobspec"
	"twolm/internal/sweep"
)

// goldenOpts returns options that check against (or record into) a
// temporary golden directory at the default seed.
func goldenOpts(t *testing.T, write bool) options {
	return options{seed: defaultSeed, golden: t.TempDir(), writeGolden: write}
}

func TestPaperDigestRoundTrip(t *testing.T) {
	var jobs []engine.Job
	for _, j := range engine.Suite(engine.DefaultSuiteConfig(1<<16, false)) {
		if j.Name == "table1_access_amplification" || j.Name == "fig4a_read_clean_miss" {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) != 2 {
		t.Fatalf("found %d of the 2 tiny suite jobs", len(jobs))
	}
	o := goldenOpts(t, true)
	rep := newReport()
	outs, _ := reproduce(jobs)
	if err := checkPaper(o, rep, outs); err != nil {
		t.Fatal(err)
	}
	o.writeGolden = false
	outs, _ = reproduce(jobs)
	if err := checkPaper(o, rep, outs); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted != 4 {
		t.Fatalf("round trip: attempted %d failed %d (%v)", rep.attempted, rep.failed, rep.problems)
	}

	// A changed cell in one job's table fails that job only.
	outs[0].Artifacts[0].Table.Rows[0][0] += "x"
	rep = newReport()
	if err := checkPaper(o, rep, outs); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Fatalf("altered artifact: failed %d, want 1 (%v)", rep.failed, rep.problems)
	}

	// A job that errors fails once, not again for the artifacts it did
	// not produce; when every job errors, failed equals attempted.
	outs, _ = reproduce(jobs)
	outs[1].Err, outs[1].Artifacts = errors.New("claim failed"), nil
	rep = newReport()
	if err := checkPaper(o, rep, outs); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 || rep.attempted != 2 {
		t.Fatalf("one job errors: attempted %d failed %d, want 2 and 1 (%v)", rep.attempted, rep.failed, rep.problems)
	}
	for i := range outs {
		outs[i].Err, outs[i].Artifacts = errors.New("claim failed"), nil
	}
	rep = newReport()
	if err := checkPaper(o, rep, outs); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 2 || rep.attempted != 2 {
		t.Fatalf("every job errors: attempted %d failed %d, want 2 and 2 (%v)", rep.attempted, rep.failed, rep.problems)
	}

	// A golden job the suite no longer runs is one more failed operation.
	outs, _ = reproduce(jobs[:1])
	rep = newReport()
	if err := checkPaper(o, rep, outs); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 || rep.attempted != 2 {
		t.Fatalf("dropped job: attempted %d failed %d, want 2 and 1 (%v)", rep.attempted, rep.failed, rep.problems)
	}
}

func tinySpec(seed uint32) sweep.Spec {
	return sweep.Spec{Name: "tiny", Axes: jobspec.Axes{
		CacheKiB: []uint64{64},
		Ways:     []int{1, 4},
		Policies: []string{sweep.PolicyHardware, sweep.PolicyNoWriteAllocate},
		Patterns: []string{sweep.PatternSequential, sweep.PatternRandom},
		Seeds:    []uint32{seed},
	}}
}

func TestSweepDigestRoundTrip(t *testing.T) {
	r, err := sweep.New(tinySpec(derive(defaultSeed, saltSweep)))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := r.Run(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]sweep.Row(nil), rows...)
	csv, err := rowsCSV(ref)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{"sweep_results.csv": digest(csv)}
	o := goldenOpts(t, true)
	if _, err := checkGolden(o, "tiny", true, got); err != nil {
		t.Fatal(err)
	}
	o.writeGolden = false
	if bad, err := checkGolden(o, "tiny", true, got); err != nil || len(bad) != 0 {
		t.Fatalf("golden round trip: %v %v", bad, err)
	}
	// Another seed is not compared with the golden digests.
	o.seed = defaultSeed + 1
	if bad, err := checkGolden(o, "tiny", true, map[string]string{"sweep_results.csv": "x"}); err != nil || len(bad) != 0 {
		t.Fatalf("off-seed run compared with golden: %v %v", bad, err)
	}

	rep := newReport()
	rows, err = r.Run(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(rep, ref, rows)
	if rep.failed != 0 || rep.attempted != len(ref) {
		t.Fatalf("repeat run: attempted %d failed %d", rep.attempted, rep.failed)
	}
	ref[2].Counters.TagHit++
	checkRows(rep, ref, rows)
	if rep.failed != 1 {
		t.Fatalf("altered row: failed %d, want 1", rep.failed)
	}
}

func TestRedriveGridMatchesRunner(t *testing.T) {
	r, err := sweep.New(tinySpec(derive(defaultSeed, saltSweep)))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := r.Run(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	work, err := redriveGrid(newTracer(), rep, r.Points(), rows)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("re-drive differs from the runner: %v", rep.problems)
	}
	for _, c := range imcClasses {
		if work.lines[c] == 0 {
			t.Errorf("dispatch class %s served no lines", c)
		}
	}
}

func TestStreamStateRoundTrip(t *testing.T) {
	for _, cfgs := range [][]streamConfig{seqConfigs[:1], randConfigs[:1]} {
		base := derive(defaultSeed, saltStreams)
		a, err := round(cfgs, base, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := round(cfgs, base, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[string]string{cfgs[0].name: a[0].state}
		rep := newReport()
		checkRound(rep, cfgs, ref, b)
		if rep.failed != 0 {
			t.Fatalf("%s: two rounds differ:\n%s\n%s", cfgs[0].name, a[0].state, b[0].state)
		}

		// The split re-drive must leave the same counters as the pass.
		r, err := setupStream(cfgs[0])
		if err != nil {
			t.Fatal(err)
		}
		lines := make(map[string]uint64)
		for p := 0; p < streamPasses; p++ {
			if cfgs[0].random {
				err = splitRandPass(newTracer(), r, base+uint32(p), lines)
			} else {
				splitSeqPass(newTracer(), r, lines)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := counterState(r.sys); got != a[0].state {
			t.Fatalf("%s: split re-drive differs:\n%s\n%s", cfgs[0].name, got, a[0].state)
		}

		ref[cfgs[0].name] += "x"
		checkRound(rep, cfgs, ref, b)
		if rep.failed != 1 {
			t.Fatalf("%s: altered state: failed %d, want 1", cfgs[0].name, rep.failed)
		}
	}
}

func TestSimdBodiesDeterministic(t *testing.T) {
	a, err := simdBodies(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simdBodies(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != bodiesPerKind*len(simdKinds) {
		t.Fatalf("got %d bodies", len(a))
	}
	for i := range a {
		if string(a[i].body) != string(b[i].body) || string(a[i].want) != string(b[i].want) {
			t.Fatalf("body %d differs between generations", i)
		}
		if len(a[i].want) == 0 {
			t.Fatalf("body %d has an empty expected result", i)
		}
	}
	c, err := simdBodies(8)
	if err != nil {
		t.Fatal(err)
	}
	if string(c[0].body) == string(a[0].body) {
		t.Fatalf("another seed generated the same random body")
	}
}

// fakeSimd serves the simd job API with one fixed result body.
func fakeSimd(t *testing.T, result string, reject bool) *httptest.Server {
	var next atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if reject {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"j-%d","status":"queued"}`, next.Add(1))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"done"}`)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, result)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"queue_depth":0}`)
	})
	s := httptest.NewServer(mux)
	t.Cleanup(s.Close)
	return s
}

func TestGeneratorChecksEveryResult(t *testing.T) {
	for _, tc := range []struct {
		name, result string
		reject       bool
		wantFailed   bool
	}{
		{"match", "rows\n", false, false},
		{"mismatch", "other\n", false, true},
		{"rejected", "rows\n", true, true},
	} {
		s := fakeSimd(t, tc.result, tc.reject)
		g := &generator{
			base:   s.URL,
			submit: newClient(),
			poll:   newClient(),
			bodies: []simdBody{{body: []byte(`{}`), want: []byte("rows\n")}},
			rng:    newRand(1),
		}
		st := g.runStep(400, 150*time.Millisecond)
		if st.sent == 0 {
			t.Fatalf("%s: no jobs sent", tc.name)
		}
		if tc.wantFailed {
			if st.failed != st.sent {
				t.Errorf("%s: failed %d of %d", tc.name, st.failed, st.sent)
			}
			if tc.reject && st.rejected != st.sent {
				t.Errorf("%s: rejected %d of %d", tc.name, st.rejected, st.sent)
			}
			continue
		}
		if st.failed != 0 || st.fetched != st.sent || len(st.latMS) != st.sent {
			t.Errorf("%s: sent %d fetched %d failed %d (%v)", tc.name, st.sent, st.fetched, st.failed, st.problems)
		}
		for _, l := range st.latMS {
			if l <= 0 {
				t.Errorf("%s: non-positive latency %g", tc.name, l)
			}
		}
	}
}

func TestScheduleFromSeed(t *testing.T) {
	a, b := newRand(3), newRand(3)
	for i := 0; i < 100; i++ {
		if a.ExpFloat64() != b.ExpFloat64() {
			t.Fatalf("schedules of one seed differ at %d", i)
		}
	}
	if newRand(3).ExpFloat64() == newRand(4).ExpFloat64() {
		t.Fatalf("seeds 3 and 4 start the same schedule")
	}
}

// benchmarkFile is the BENCHMARK.json shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func catalogueJSON(defs []metricDef, withBound bool) []jsonMetric {
	out := make([]jsonMetric, len(defs))
	for i, d := range defs {
		out[i] = jsonMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if withBound {
			b := d.Bound
			out[i].Bound = &b
		}
	}
	return out
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []jsonMetric
	}{
		{"end_to_end", f.EndToEnd, catalogueJSON(endToEnd, true)},
		{"per_layer", f.PerLayer, catalogueJSON(perLayer, false)},
	} {
		g, _ := json.Marshal(c.got)
		w, _ := json.Marshal(c.want)
		if string(g) != string(w) {
			t.Errorf("BENCHMARK.json %s differs from metrics.go; want\n%s", c.name, w)
		}
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, runners %v", names, workloadNames())
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric %q unit %q", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestDerive(t *testing.T) {
	seen := make(map[uint32]bool)
	for seed := uint64(0); seed < 50; seed++ {
		for salt := uint64(0); salt < 5; salt++ {
			v := derive(seed, salt)
			if v == 0 || v != derive(seed, salt) || seen[v] {
				t.Fatalf("derive(%d, %d) = %d: zero, unstable or repeated", seed, salt, v)
			}
			seen[v] = true
		}
	}
}
