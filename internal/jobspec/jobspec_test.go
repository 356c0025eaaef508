package jobspec

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
)

func validPoint() string {
	return `{
		"version": 1,
		"name": "point",
		"geometry": {"cache_kib": 256, "ways": 1, "channels": 2, "dimms": 1},
		"policy": "hardware",
		"workload": {"pattern": "random", "ratio": 4, "seed": 11034, "passes": 1},
		"telemetry": {"sample_lines": 4096, "formats": ["csv", "json"]},
		"timeout_ms": 5000
	}`
}

func validGrid() string {
	return `{
		"version": 1,
		"name": "grid",
		"sweep": {
			"cache_kib": [64, 128],
			"policies": ["hardware", "ddo-off"],
			"ratios": [2, 4],
			"patterns": ["sequential", "random"]
		}
	}`
}

func TestDecodeValidPoint(t *testing.T) {
	s, err := Decode(strings.NewReader(validPoint()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if s.Geometry == nil || s.Sweep != nil {
		t.Fatalf("expected point form, got %+v", s)
	}
	if got := s.Timeout(); got != 5*time.Second {
		t.Fatalf("Timeout = %v, want 5s", got)
	}
	if !s.WantsFormat(FormatCSV) || !s.WantsFormat(FormatJSON) {
		t.Fatalf("formats not honored: %+v", s.Telemetry)
	}
}

func TestDecodeValidGrid(t *testing.T) {
	s, err := Decode(strings.NewReader(validGrid()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if s.Sweep == nil || s.Geometry != nil {
		t.Fatalf("expected grid form, got %+v", s)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	cases := map[string]string{
		"top level":  `{"version": 1, "geometry": {"cache_kib": 64}, "bogus": true}`,
		"geometry":   `{"version": 1, "geometry": {"cache_kib": 64, "cache_kb": 64}}`,
		"workload":   `{"version": 1, "geometry": {"cache_kib": 64}, "workload": {"patern": "random"}}`,
		"sweep axis": `{"version": 1, "sweep": {"cache_kib": [64], "way": [2]}}`,
		"telemetry":  `{"version": 1, "geometry": {"cache_kib": 64}, "telemetry": {"sampleLines": 4}}`,
	}
	for name, doc := range cases {
		if _, err := Decode(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: unknown field accepted", name)
		}
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	if _, err := Decode(strings.NewReader(validPoint() + `{"version": 1}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
}

func TestNormalizedDefaults(t *testing.T) {
	s := Spec{Version: 1, Geometry: &Geometry{CacheKiB: 64}}
	n := s.Normalized()
	g := n.Geometry
	if g.Ways != 1 || g.Channels != 1 || g.DIMMs != 1 {
		t.Fatalf("geometry defaults: %+v", g)
	}
	if n.Policy != PolicyHardware {
		t.Fatalf("policy default = %q", n.Policy)
	}
	w := n.Workload
	if w.Pattern != PatternSequential || w.Ratio != DefaultRatio ||
		w.Seed != DefaultSeed || w.Scale != 1 || w.Passes != 1 {
		t.Fatalf("workload defaults: %+v", w)
	}
	if len(n.Telemetry.Formats) != 2 {
		t.Fatalf("format defaults: %+v", n.Telemetry)
	}
	// The input spec must be untouched (value semantics).
	if s.Workload != nil || s.Policy != "" || s.Telemetry != nil {
		t.Fatalf("Normalized mutated its receiver: %+v", s)
	}
}

func TestNormalizedAxesDefaults(t *testing.T) {
	a := Axes{CacheKiB: []uint64{64}}.Normalized()
	if len(a.Ways) != 1 || a.Ways[0] != 1 {
		t.Fatalf("ways default: %v", a.Ways)
	}
	if len(a.Policies) != 1 || a.Policies[0] != PolicyHardware {
		t.Fatalf("policies default: %v", a.Policies)
	}
	if len(a.Seeds) != 1 || a.Seeds[0] != DefaultSeed {
		t.Fatalf("seeds default: %v", a.Seeds)
	}
	if a.Passes != 1 {
		t.Fatalf("passes default: %d", a.Passes)
	}
}

// TestValidateCollectsEveryViolation is the contract the 400-response
// of cmd/simd depends on: one pass reports all problems.
func TestValidateCollectsEveryViolation(t *testing.T) {
	s := Spec{
		Version: 3,
		Geometry: &Geometry{
			CacheKiB: 100, // not ways*line aligned for ways=3... but ways invalid first
			Ways:     -1,
			Channels: 0, // defaults to 1, fine
		},
		Policy:    "banshee",
		Workload:  &Workload{Pattern: "zigzag", Scale: 3, Passes: -2},
		Telemetry: &Telemetry{Formats: []string{"csv", "parquet"}},
		TimeoutMS: -5,
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("invalid spec validated")
	}
	verrs, ok := err.(*Errors)
	if !ok {
		t.Fatalf("error type %T, want *Errors", err)
	}
	want := map[string]bool{
		"version":              false,
		"geometry.ways":        false,
		"policy":               false,
		"workload.pattern":     false,
		"workload.scale":       false,
		"workload.passes":      false,
		"telemetry.formats[1]": false,
		"timeout_ms":           false,
	}
	for _, v := range verrs.Violations {
		if _, expected := want[v.Field]; expected {
			want[v.Field] = true
		} else {
			t.Errorf("unexpected violation %s: %s", v.Field, v.Msg)
		}
	}
	for field, seen := range map[string]bool(want) {
		if !seen {
			t.Errorf("missing violation for %s (got %v)", field, verrs.Violations)
		}
	}
}

func TestValidateExclusivity(t *testing.T) {
	both := Spec{Version: 1,
		Geometry: &Geometry{CacheKiB: 64},
		Sweep:    &Axes{CacheKiB: []uint64{64}}}
	if both.Validate() == nil {
		t.Fatal("geometry+sweep accepted")
	}
	neither := Spec{Version: 1}
	if neither.Validate() == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestValidateGridRejectsPointFields(t *testing.T) {
	s := Spec{Version: 1,
		Sweep:    &Axes{CacheKiB: []uint64{64}},
		Policy:   PolicyHardware,
		Workload: &Workload{Pattern: PatternRandom}}
	err := s.Validate()
	if err == nil {
		t.Fatal("grid spec with point-form policy/workload accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "workload") || !strings.Contains(msg, "policy") {
		t.Fatalf("missing violations: %v", msg)
	}
}

func TestValidateAlignment(t *testing.T) {
	// 1 KiB over 3 ways: 1024 % (64*3) != 0.
	s := Spec{Version: 1, Geometry: &Geometry{CacheKiB: 1, Ways: 3}}
	if s.Validate() == nil {
		t.Fatal("misaligned cache/ways accepted")
	}
	// The same rule applies pairwise across grid axes.
	g := Spec{Version: 1, Sweep: &Axes{CacheKiB: []uint64{1, 64}, Ways: []int{1, 3}}}
	err := g.Validate()
	if err == nil {
		t.Fatal("misaligned grid cell accepted")
	}
	if !strings.Contains(err.Error(), "sweep.cache_kib[0]") {
		t.Fatalf("violation not addressed to the axis element: %v", err)
	}
	// 64 KiB over 1 or 3 ways is fine... 65536 % 192 = 64, not fine for 3.
	if !strings.Contains(err.Error(), "sweep.cache_kib[1]") {
		t.Fatalf("expected 64 KiB x 3 ways violation too: %v", err)
	}
	ok := Spec{Version: 1, Sweep: &Axes{CacheKiB: []uint64{192}, Ways: []int{1, 3}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("aligned grid rejected: %v", err)
	}
}

func TestValidateGoodDefaultsPass(t *testing.T) {
	s := Spec{Version: 1, Geometry: &Geometry{CacheKiB: 4096}}
	if err := s.Validate(); err != nil {
		t.Fatalf("minimal point spec rejected: %v", err)
	}
	g := Spec{Version: 1, Sweep: &Axes{CacheKiB: []uint64{64, 128}}}
	if err := g.Validate(); err != nil {
		t.Fatalf("minimal grid spec rejected: %v", err)
	}
}

// seq returns n distinct positive values of an axis type.
func seq[T uint64 | int | uint32](n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = T(i + 1)
	}
	return s
}

// TestAxesPoints: seed-independent patterns expand once, random ones
// once per seed, and a product too large for an int saturates.
func TestAxesPoints(t *testing.T) {
	a := Axes{
		CacheKiB: []uint64{64, 128},
		Policies: []string{PolicyHardware, PolicyDDOOff},
		Patterns: []string{PatternSequential, PatternRandom, PatternWrite},
		Seeds:    seq[uint32](5),
	}.Normalized()
	if got, want := a.Points(), 2*2*(1+5+1); got != want {
		t.Errorf("Points = %d, want %d", got, want)
	}
	huge := Axes{
		CacheKiB: seq[uint64](1000), Ways: seq[int](1000), Channels: seq[int](1000),
		DIMMs: seq[int](1000), Ratios: seq[uint64](1000), Patterns: []string{PatternRandom},
		Seeds: seq[uint32](1000),
	}.Normalized()
	if got := huge.Points(); got != MaxPoints+1 {
		t.Errorf("10^18-point grid: Points = %d, want the saturated %d", got, MaxPoints+1)
	}
}

// TestValidateCapsGridPoints: a grid of exactly MaxPoints points is
// accepted, one more point is a violation of the sweep field, and a
// document of a few hundred bytes naming 4*10^7 points is rejected at
// decode time.
func TestValidateCapsGridPoints(t *testing.T) {
	atCap := Axes{CacheKiB: seq[uint64](16), Patterns: []string{PatternRandom}, Seeds: seq[uint32](MaxPoints / 16)}
	if err := (Spec{Version: 1, Sweep: &atCap}).Validate(); err != nil {
		t.Fatalf("grid of exactly %d points rejected: %v", MaxPoints, err)
	}
	over := atCap
	over.Patterns = []string{PatternRandom, PatternSequential}
	assertCapViolation(t, Spec{Version: 1, Sweep: &over}.Validate())

	doc := `{"version": 1, "sweep": {
		"cache_kib": [64, 128, 192, 256, 320, 384, 448, 512, 576, 640],
		"ways": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
		"policies": ["hardware", "ddo-off", "no-write-allocate", "no-read-allocate"],
		"channels": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
		"dimms": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
		"ratios": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
		"patterns": ["random"],
		"seeds": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
		          21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40,
		          41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60,
		          61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80,
		          81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99, 100]
	}}`
	_, err := Decode(strings.NewReader(doc))
	assertCapViolation(t, err)
	var verrs *Errors
	errors.As(err, &verrs)
	if len(verrs.Violations) != 1 {
		t.Errorf("the cap should be the document's only violation: %v", verrs.Violations)
	}
}

// assertCapViolation fails unless err is an *Errors with a violation
// on the sweep field naming MaxPoints.
func assertCapViolation(t *testing.T, err error) {
	t.Helper()
	var verrs *Errors
	if !errors.As(err, &verrs) {
		t.Fatalf("over-cap grid: err = %v, want *Errors", err)
	}
	for _, v := range verrs.Violations {
		if v.Field == "sweep" && strings.Contains(v.Msg, strconv.Itoa(MaxPoints)) {
			return
		}
	}
	t.Errorf("no sweep-field cap violation in %v", verrs.Violations)
}
