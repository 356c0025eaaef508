package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagSurface pins the shared runcfg flag set on nvtrace: every
// shared flag nvtrace acts on parses into the Common block, the
// bespoke trace flags still work beside them, -quick overrides
// -scale, and the suite-only flags are unknown here.
func TestFlagSurface(t *testing.T) {
	o, err := parseFlags("nvtrace-test", []string{
		"-out", "artifacts",
		"-scale", "2048",
		"-metrics-addr", "127.0.0.1:0",
		"-replay", "trace.bin",
		"-mode", "1lm",
		"-threads", "8",
		"-no-ddo",
		"-ways", "4",
		"-write-around",
		"-op", "rmw",
		"-pattern", "rand",
		"-nt",
		"-array-mb", "16",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.rc.Out != "artifacts" || o.rc.Scale != 2048 || o.rc.MetricsAddr != "127.0.0.1:0" {
		t.Errorf("shared flags misparsed: %+v", o.rc)
	}
	if o.replay != "trace.bin" || o.mode != "1lm" || o.threads != 8 ||
		!o.noDDO || o.ways != 4 || !o.writeAround {
		t.Errorf("replay flags misparsed: %+v", o)
	}
	if o.op != "rmw" || o.pattern != "rand" || !o.nt || o.arrayMB != 16 {
		t.Errorf("record flags misparsed: %+v", o)
	}
	if o.scale() != 2048 {
		t.Errorf("scale() = %d, want 2048", o.scale())
	}

	quick, err := parseFlags("nvtrace-test", []string{"-scale", "64", "-quick"})
	if err != nil {
		t.Fatal(err)
	}
	if quick.scale() != quickScale {
		t.Errorf("-quick scale() = %d, want %d", quick.scale(), quickScale)
	}

	// Replay is serial, so a worker count would do nothing; nvtrace
	// does not accept one.
	if _, err := parseFlags("nvtrace-test", []string{"-parallel", "2"}); err == nil ||
		!strings.Contains(err.Error(), "not defined: -parallel") {
		t.Errorf("-parallel: parse err = %v, want unknown flag", err)
	}
}

// TestFlagValidation pins that malformed shared flags are rejected by
// the same runcfg validation every binary uses, that the suite-only
// -parallel and the retired -channels are rejected as unknown flags,
// and that the record/replay mode selection is enforced.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad-scale", []string{"-replay", "x", "-scale", "1000"}, "power of two"},
		{"bad-parallel", []string{"-replay", "x", "-parallel", "0"}, "not defined: -parallel"},
		{"bad-channels", []string{"-replay", "x", "-channels", "-2"}, "not defined: -channels"},
		{"both-modes", []string{"-record", "a", "-replay", "b"}, "one of"},
		{"no-mode", nil, "required"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags("nvtrace-test", tc.args)
			if err == nil {
				err = o.run()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestRecordReplayRoundTrip exercises the full pipeline in-process at
// a tiny footprint: record a kernel trace, replay it with -out, and
// check both artifacts exist and carry content.
func TestRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.bin")

	rec, err := parseFlags("nvtrace-test", []string{
		"-record", tracePath, "-op", "rmw", "-pattern", "rand",
		"-array-mb", "2", "-threads", "2", "-quick",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.run(); err != nil {
		t.Fatalf("record: %v", err)
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}

	out := filepath.Join(dir, "artifacts")
	rep, err := parseFlags("nvtrace-test", []string{
		"-replay", tracePath, "-threads", "2", "-quick", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.run(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	sum, err := os.ReadFile(filepath.Join(out, "nvtrace_replay.json"))
	if err != nil {
		t.Fatalf("summary artifact: %v", err)
	}
	if !strings.Contains(string(sum), "\"ops\"") {
		t.Errorf("summary missing op count: %s", sum)
	}
	series, err := os.ReadFile(filepath.Join(out, "nvtrace_replay_series.csv"))
	if err != nil {
		t.Fatalf("series artifact: %v", err)
	}
	if !strings.Contains(string(series), "\n") {
		t.Errorf("series artifact empty: %q", series)
	}
}
