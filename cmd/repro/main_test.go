package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFlagSurface pins repro's command line: every flag parses into
// options, and the flags -job bypasses are recorded when given
// explicitly.
func TestFlagSurface(t *testing.T) {
	o, err := parseFlags([]string{
		"-out", "artifacts",
		"-scale", "2048",
		"-quick",
		"-parallel", "3",
		"-metrics-addr", "127.0.0.1:0",
		"-job", "spec.json",
		"-experiment", "fig2a_nvram_read_bw,claims_check",
		"-cpuprofile", "cpu.out",
		"-memprofile", "mem.out",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.out != "artifacts" || o.scale != 2048 || !o.quick || o.parallel != 3 ||
		o.metricsAddr != "127.0.0.1:0" || o.job != "spec.json" ||
		o.experiment != "fig2a_nvram_read_bw,claims_check" || o.cpuprofile != "cpu.out" || o.memprofile != "mem.out" {
		t.Errorf("flags misparsed: %+v", o)
	}
	if want := []string{"-experiment", "-metrics-addr", "-quick", "-scale"}; !slices.Equal(o.bypassed, want) {
		t.Errorf("bypassed = %q, want %q", o.bypassed, want)
	}

	d, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.experiment != allExperiments {
		t.Errorf("default -experiment = %q, want %q", d.experiment, allExperiments)
	}
	if d.bypassed != nil {
		t.Errorf("defaults recorded as explicitly set: %q", d.bypassed)
	}
	for _, retired := range [][]string{{"-small-scale", "14"}, {"-channels", "6"}} {
		if _, err := parseFlags(retired); err == nil {
			t.Errorf("unknown flag %s accepted", retired[0])
		}
	}
}

// TestFlagValidation: bad input fails before any experiment runs and
// before the output directory exists — malformed shared flags, an
// unknown experiment name, and any flag -job bypasses given beside
// -job.
func TestFlagValidation(t *testing.T) {
	const job = "../../examples/jobspec_quick.json"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad-scale", []string{"-quick", "-scale", "1000"}, "power of two"},
		{"bad-parallel", []string{"-quick", "-parallel", "0"}, "-parallel"},
		{"unknown-experiment", []string{"-quick", "-experiment", "fig2a_nvram_read_bw,fig3"}, `unknown name "fig3"`},
		{"empty-experiment", []string{"-quick", "-experiment", ""}, `unknown name ""`},
		{"experiment-with-job", []string{"-experiment", "claims_check", "-job", job}, "-experiment cannot be combined with -job"},
		{"all-experiments-with-job", []string{"-experiment", allExperiments, "-job", job}, "-experiment cannot be combined with -job"},
		{"scale-with-job", []string{"-scale", "512", "-job", job}, "-scale cannot be combined with -job"},
		{"quick-with-job", []string{"-job", job, "-quick"}, "-quick cannot be combined with -job"},
		{"metrics-addr-with-job", []string{"-job", job, "-metrics-addr", "127.0.0.1:0"}, "-metrics-addr cannot be combined with -job"},
		{"several-with-job", []string{"-job", job, "-quick", "-scale", "512"}, "-quick, -scale cannot be combined with -job"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			o, err := parseFlags(append([]string{"-out", out}, tc.args...))
			if err != nil {
				t.Fatal(err)
			}
			err = o.run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("run(%v) created the output directory (stat: %v)", tc.args, err)
			}
		})
	}
}

// TestExperimentSelection: a selection writes exactly its jobs'
// artifacts — no other job's, and no throughput baseline — whatever
// order the names are given in.
func TestExperimentSelection(t *testing.T) {
	out := t.TempDir()
	o, err := parseFlags([]string{"-quick", "-parallel", "2", "-out", out,
		"-experiment", "table1_access_amplification,fig2a_nvram_read_bw"})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.run(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{
		"fig2a_nvram_read_bw.csv", "fig2a_nvram_read_bw.txt",
		"table1_access_amplification.csv", "table1_access_amplification.txt",
	}
	if !slices.Equal(got, want) {
		t.Errorf("artifacts = %q, want %q", got, want)
	}
}

// TestJobRun: -job runs the jobspec instead of the suite and writes
// exactly the jobspec artifacts, with -out and -parallel still
// applying.
func TestJobRun(t *testing.T) {
	out := t.TempDir()
	o, err := parseFlags([]string{"-parallel", "2", "-out", out, "-job", "../../examples/sweep_quick.json"})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.run(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if want := []string{"job_results.csv", "job_results.json"}; !slices.Equal(got, want) {
		t.Errorf("artifacts = %q, want %q", got, want)
	}
}

// TestRegisterParsesSharedFlags: the simulation flags parse into
// options.
func TestRegisterParsesSharedFlags(t *testing.T) {
	o, err := parseFlags([]string{
		"-out", "artifacts",
		"-scale", "2048",
		"-quick",
		"-parallel", "3",
		"-metrics-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.out != "artifacts" || o.scale != 2048 || !o.quick ||
		o.parallel != 3 || o.metricsAddr != "127.0.0.1:0" {
		t.Errorf("parsed options %+v do not match the flag values", o)
	}
}

func TestDefaultsValidate(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.out != "results" || o.scale != 1024 || o.parallel < 1 {
		t.Errorf("defaults %+v are not results/, 1/1024 and one worker per CPU", o)
	}
	if err := o.validate(); err != nil {
		t.Errorf("defaults must validate, got %v", err)
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"zero scale", []string{"-scale", "0"}},
		{"non-power-of-two scale", []string{"-scale", "1000"}},
		{"zero parallel", []string{"-parallel", "0"}},
	} {
		o, err := parseFlags(tc.args)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", tc.name, o)
		}
	}
}

func TestMetricsDisabledReturnsNil(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	prom, err := o.metrics()
	if err != nil {
		t.Fatal(err)
	}
	if prom != nil {
		t.Error("metrics without -metrics-addr must return a nil exporter")
	}
}

func TestMetricsServesExposition(t *testing.T) {
	o, err := parseFlags([]string{"-metrics-addr", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	prom, err := o.metrics()
	if err != nil {
		t.Skipf("cannot bind loopback listener in this environment: %v", err)
	}
	if prom == nil {
		t.Fatal("metrics with an address returned a nil exporter")
	}
	if o.boundAddr == "" || o.boundAddr == o.metricsAddr {
		t.Errorf("boundAddr %q should carry the resolved port", o.boundAddr)
	}
	prom.SetGauge("jobs_total", "Experiment jobs in this run.", 3)

	resp, err := http.Get("http://" + o.boundAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q is not the text exposition format", ct)
	}
	if !strings.Contains(string(body), "twolm_jobs_total 3") {
		t.Errorf("exposition missing the published gauge:\n%s", body)
	}
}

// TestLoadJob: unset flag loads nothing; a valid file loads; an
// invalid file fails.
func TestLoadJob(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := o.loadJob(); s != nil || err != nil {
		t.Fatalf("unset -job: %v, %v", s, err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"version":1,"geometry":{"cache_kib":64}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if o, err = parseFlags([]string{"-job", good}); err != nil {
		t.Fatal(err)
	}
	s, err := o.loadJob()
	if err != nil || s == nil || s.Geometry.CacheKiB != 64 {
		t.Fatalf("good file: %+v, %v", s, err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"geometri":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if o, err = parseFlags([]string{"-job", bad}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.loadJob(); err == nil {
		t.Fatal("unknown-field file accepted")
	}
}
