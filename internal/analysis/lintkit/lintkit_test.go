package lintkit_test

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twolm/internal/analysis/lintkit"
)

// probe flags every return statement, giving the suppression tests a
// deterministic diagnostic source.
var probe = &lintkit.Analyzer{
	Name: "probe",
	Doc:  "flags every return statement (test analyzer)",
	Run: func(pass *lintkit.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if r, ok := n.(*ast.ReturnStmt); ok {
					pass.Reportf(r.Pos(), "return statement")
				}
				return true
			})
		}
		return nil
	},
}

// loadTemp writes src as a single-file module package and loads it.
func loadTemp(t *testing.T, src string) *lintkit.Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	loader := lintkit.NewModuleLoader(dir, "tmp")
	pkg, err := loader.Load("tmp")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func run(t *testing.T, pkg *lintkit.Package) []lintkit.Diagnostic {
	t.Helper()
	diags, err := lintkit.Run(pkg, []*lintkit.Analyzer{probe})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestSuppressionForms: trailing and line-above directives suppress;
// a directive for a different analyzer does not.
func TestSuppressionForms(t *testing.T) {
	pkg := loadTemp(t, `package p
func a() int {
	return 1 //lint:ignore probe trailing form
}
func b() int {
	//lint:ignore probe line-above form
	return 2
}
func c() int {
	return 3 //lint:ignore otherlint wrong analyzer name
}
`)
	diags := run(t, pkg)
	// c's return survives, and the otherlint directive is unused.
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "probe" {
		t.Errorf("first diagnostic from %s, want probe", diags[0].Analyzer)
	}
	if diags[1].Analyzer != "lintdirective" || !strings.Contains(diags[1].Message, "unused") {
		t.Errorf("second diagnostic = [%s] %s, want unused lintdirective", diags[1].Analyzer, diags[1].Message)
	}
}

// TestMalformedDirective: suppressing without a reason is itself
// reported, and the suppression does not take effect.
func TestMalformedDirective(t *testing.T) {
	pkg := loadTemp(t, `package p
func a() int {
	//lint:ignore probe
	return 1
}
`)
	diags := run(t, pkg)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (unsuppressed probe + malformed): %v", len(diags), diags)
	}
	var haveProbe, haveMalformed bool
	for _, d := range diags {
		haveProbe = haveProbe || d.Analyzer == "probe"
		haveMalformed = haveMalformed || (d.Analyzer == "lintdirective" && strings.Contains(d.Message, "reason is mandatory"))
	}
	if !haveProbe || !haveMalformed {
		t.Errorf("diagnostics = %v, want a surviving probe finding and a malformed-directive finding", diags)
	}
}

// TestCommaList: one directive can name several analyzers.
func TestCommaList(t *testing.T) {
	pkg := loadTemp(t, `package p
func a() int {
	return 1 //lint:ignore otherlint,probe listed second
}
`)
	if diags := run(t, pkg); len(diags) != 0 {
		t.Fatalf("got %d diagnostics, want 0: %v", len(diags), diags)
	}
}

// TestRawDiagnostics: the guarantee-test entry point sees through
// suppressions.
func TestRawDiagnostics(t *testing.T) {
	pkg := loadTemp(t, `package p
func a() int {
	return 1 //lint:ignore probe suppressed for the filtered path only
}
`)
	raw, err := lintkit.RawDiagnostics(pkg, []*lintkit.Analyzer{probe})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 1 {
		t.Fatalf("raw diagnostics = %v, want the suppressed finding", raw)
	}
}

// TestLoaderCrossImport: module packages import each other and the
// standard library through the source loader.
func TestLoaderCrossImport(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "inner"), 0o777); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"go.mod":          "module tmp\n\ngo 1.22\n",
		"p.go":            "package p\n\nimport (\n\t\"fmt\"\n\n\t\"tmp/inner\"\n)\n\nfunc Render() string { return fmt.Sprint(inner.X) }\n",
		"inner/q.go":      "package inner\n\nvar X = 42\n",
		"inner/q_test.go": "package inner\n\nthis is not Go but test files are never parsed\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(name)), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	loader := lintkit.NewModuleLoader(dir, "tmp")
	pkg, err := loader.Load("tmp")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "p" {
		t.Errorf("loaded package %q, want p", pkg.Types.Name())
	}

	paths, err := lintkit.DiscoverModule(dir, "tmp")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"tmp", "tmp/inner"}
	if len(paths) != len(want) || paths[0] != want[0] || paths[1] != want[1] {
		t.Errorf("DiscoverModule = %v, want %v", paths, want)
	}

	mod, err := lintkit.ModuleInfo(dir)
	if err != nil || mod != "tmp" {
		t.Errorf("ModuleInfo = %q, %v, want tmp", mod, err)
	}
}

// TestLineDirective: marker detection on the declaration line and the
// line above.
func TestLineDirective(t *testing.T) {
	pkg := loadTemp(t, `package p

type s struct {
	marked   int //mark:here declared
	unmarked int
}
`)
	var marked, unmarked token.Pos
	ast.Inspect(pkg.Files[0], func(n ast.Node) bool {
		if f, ok := n.(*ast.Field); ok && len(f.Names) == 1 {
			switch f.Names[0].Name {
			case "marked":
				marked = f.Names[0].Pos()
			case "unmarked":
				unmarked = f.Names[0].Pos()
			}
		}
		return true
	})
	if !lintkit.LineDirective(pkg.Fset, pkg.Files, marked, "mark:here") {
		t.Error("marked field not detected")
	}
	if lintkit.LineDirective(pkg.Fset, pkg.Files, unmarked, "mark:here") {
		t.Error("unmarked field falsely detected")
	}
}
