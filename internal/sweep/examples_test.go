package sweep

import (
	"path/filepath"
	"reflect"
	"testing"

	"twolm/internal/jobspec"
)

// TestExampleGrids pins the committed jobspec files under examples/:
// every one loads through the strict decoder, the default grid lowers
// to exactly DefaultSpec (the grid perfbench's sweep-grid workload
// runs, so the CLI grid and the benchmark grid cannot drift apart),
// and the quick grid is the 48-point CI smoke grid.
func TestExampleGrids(t *testing.T) {
	files, err := filepath.Glob("../../examples/*.json")
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[string]*jobspec.Spec{}
	for _, f := range files {
		js, err := jobspec.Load(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		loaded[filepath.Base(f)] = js
	}

	def, ok := loaded["sweep_default.json"]
	if !ok {
		t.Fatal("examples/sweep_default.json missing or invalid")
	}
	got, err := FromSpec(*def)
	if err != nil {
		t.Fatal(err)
	}
	if want := DefaultSpec().Normalized(); !reflect.DeepEqual(got, want) {
		t.Errorf("sweep_default.json lowers to\n%+v\nwant DefaultSpec\n%+v", got, want)
	}

	quick, ok := loaded["sweep_quick.json"]
	if !ok {
		t.Fatal("examples/sweep_quick.json missing or invalid")
	}
	sp, err := FromSpec(*quick)
	if err != nil {
		t.Fatal(err)
	}
	points, err := Expand(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 48 {
		t.Errorf("sweep_quick.json expands to %d points, want 48", len(points))
	}
}
