package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFlagSurface pins repro's command line: every shared runcfg flag
// parses into the Common block, -job, -experiment and the profile
// flags parse beside them, and the flags -job bypasses are recorded
// when given explicitly.
func TestFlagSurface(t *testing.T) {
	o, err := parseFlags([]string{
		"-out", "artifacts",
		"-scale", "2048",
		"-quick",
		"-parallel", "3",
		"-channels", "3",
		"-metrics-addr", "127.0.0.1:0",
		"-job", "spec.json",
		"-experiment", "fig2a_nvram_read_bw,claims_check",
		"-cpuprofile", "cpu.out",
		"-memprofile", "mem.out",
	})
	if err != nil {
		t.Fatal(err)
	}
	rc := o.rc
	if rc.Out != "artifacts" || rc.Scale != 2048 || !rc.Quick || rc.Parallel != 3 ||
		rc.Channels != 3 || rc.MetricsAddr != "127.0.0.1:0" || rc.Job != "spec.json" {
		t.Errorf("shared flags misparsed: %+v", rc)
	}
	if o.experiment != "fig2a_nvram_read_bw,claims_check" || o.cpuprofile != "cpu.out" || o.memprofile != "mem.out" {
		t.Errorf("repro flags misparsed: %+v", o)
	}
	if want := []string{"-channels", "-experiment", "-metrics-addr", "-quick", "-scale"}; !slices.Equal(o.bypassed, want) {
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
	if _, err := parseFlags([]string{"-small-scale", "14"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestFlagValidation: bad input fails before any experiment runs and
// before the output directory exists — malformed shared flags, a
// channel count that does not split the cache into whole sets, an
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
		{"bad-channels", []string{"-quick", "-channels", "-2"}, "-channels"},
		{"channels-5", []string{"-quick", "-channels", "5"}, "5 channels"},
		{"channels-7", []string{"-quick", "-channels", "7"}, "7 channels"},
		{"unknown-experiment", []string{"-quick", "-experiment", "fig2a_nvram_read_bw,fig3"}, `unknown name "fig3"`},
		{"empty-experiment", []string{"-quick", "-experiment", ""}, `unknown name ""`},
		{"experiment-with-job", []string{"-experiment", "claims_check", "-job", job}, "-experiment cannot be combined with -job"},
		{"all-experiments-with-job", []string{"-experiment", allExperiments, "-job", job}, "-experiment cannot be combined with -job"},
		{"scale-with-job", []string{"-scale", "512", "-job", job}, "-scale cannot be combined with -job"},
		{"quick-with-job", []string{"-job", job, "-quick"}, "-quick cannot be combined with -job"},
		{"channels-with-job", []string{"-job", job, "-channels", "5"}, "-channels cannot be combined with -job"},
		{"metrics-addr-with-job", []string{"-job", job, "-metrics-addr", "127.0.0.1:0"}, "-metrics-addr cannot be combined with -job"},
		{"several-with-job", []string{"-job", job, "-quick", "-channels", "5"}, "-channels, -quick cannot be combined with -job"},
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
