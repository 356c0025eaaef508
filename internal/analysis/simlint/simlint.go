// Package simlint is the registry and driver for the repro's
// invariant analyzers. It decides which analyzer runs on which
// package — the analyzers themselves are policy-free — and exposes
// the in-process entry point shared by cmd/simlint and the
// hot-package guarantee test.
//
// Scoping (see DESIGN.md, "Static invariants"):
//
//   - hotdiv runs on the per-line hot packages (imc, cache, dram,
//     nvram, core) plus the engine's channel-split routing;
//   - detrange additionally covers every package that feeds counters
//     or results artifacts (mem, kernels, results, and the telemetry
//     surface, whose serialized series are byte-identical artifacts by
//     contract);
//   - counterdrift runs where Counters and its aggregators live (imc,
//     engine);
//   - ctrmut and resetcheck are whole-module rules: ad-hoc counter
//     mutation or reversed snapshot deltas are wrong anywhere;
//   - shardsafe and allocfree are whole-module rules too — their
//     scoping is declared in source (//hot:entry, //alloc:free), and
//     reachability from those declarations crosses package borders,
//     so every package must be able to report its own findings.
//
// Check and CheckRaw load the whole module before analyzing anything:
// the interprocedural analyzers (shardsafe, allocfree, cross-package
// detrange) need the full call graph even when the caller asks about
// a single package.
package simlint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"strings"

	"twolm/internal/analysis/allocfree"
	"twolm/internal/analysis/counterdrift"
	"twolm/internal/analysis/ctrmut"
	"twolm/internal/analysis/detrange"
	"twolm/internal/analysis/hotdiv"
	"twolm/internal/analysis/lintkit"
	"twolm/internal/analysis/resetcheck"
	"twolm/internal/analysis/shardsafe"
)

func init() {
	// The cross-package detrange check skips callees that answer for
	// their own determinism; hand it the registry's scope.
	detrange.InScope = func(p string) bool {
		return deterministicPackages[NormalizeImportPath(p)]
	}
}

// A Rule pairs an analyzer with the set of packages it applies to.
type Rule struct {
	Analyzer *lintkit.Analyzer
	Match    func(importPath string) bool
}

// HotQuartet is the set of packages that must stay suppression-free
// outright (the nolint-free guarantee test enforces this): the four
// packages on the per-simulated-line path.
var HotQuartet = []string{
	"twolm/internal/imc",
	"twolm/internal/cache",
	"twolm/internal/dram",
	"twolm/internal/nvram",
}

var hotPackages = map[string]bool{
	"twolm/internal/imc":    true,
	"twolm/internal/cache":  true,
	"twolm/internal/dram":   true,
	"twolm/internal/nvram":  true,
	"twolm/internal/core":   true,
	"twolm/internal/engine": true,
}

var deterministicPackages = map[string]bool{
	"twolm/internal/imc":    true,
	"twolm/internal/cache":  true,
	"twolm/internal/dram":   true,
	"twolm/internal/nvram":  true,
	"twolm/internal/core":   true,
	"twolm/internal/engine": true,
	"twolm/internal/mem":    true,
	// The kernels own the Figure 2/4 demand stream (fixed LFSR seeds,
	// rerun to prime and to measure), so they sit inside the fence.
	"twolm/internal/kernels":   true,
	"twolm/internal/results":   true,
	"twolm/internal/telemetry": true,
	// The sweep engine's merged tables must be byte-identical across
	// worker counts, so it lives under the same determinism fence as
	// the packages it drives (ctrmut/resetcheck already apply
	// module-wide). Registered with zero suppressions: all sweep
	// timing lives in callers outside the deterministic scope
	// (benchmarks, cmd/benchcheck).
	"twolm/internal/sweep": true,
	// The jobspec package is the wire format every front end (repro,
	// simd) lowers through; a nondeterministic source there
	// would silently fan out to byte-different artifacts everywhere,
	// so it sits inside the determinism fence too.
	"twolm/internal/jobspec": true,
}

var counterPackages = map[string]bool{
	"twolm/internal/imc":    true,
	"twolm/internal/engine": true,
}

// Rules returns every analyzer with its package scope.
func Rules() []Rule {
	inModule := func(path string) bool {
		return path == "twolm" || strings.HasPrefix(path, "twolm/")
	}
	return []Rule{
		{counterdrift.Analyzer, func(p string) bool { return counterPackages[p] }},
		{hotdiv.Analyzer, func(p string) bool { return hotPackages[p] }},
		{detrange.Analyzer, func(p string) bool { return deterministicPackages[p] }},
		{ctrmut.Analyzer, inModule},
		{resetcheck.Analyzer, inModule},
		{shardsafe.Analyzer, inModule},
		{allocfree.Analyzer, inModule},
	}
}

// AnalyzersFor returns the analyzers that apply to importPath. Vet
// test-variant unit names ("pkg [pkg.test]") are normalized first.
func AnalyzersFor(importPath string) []*lintkit.Analyzer {
	importPath = NormalizeImportPath(importPath)
	var out []*lintkit.Analyzer
	for _, r := range Rules() {
		if r.Match(importPath) {
			out = append(out, r.Analyzer)
		}
	}
	return out
}

// NormalizeImportPath strips the test-variant suffix go vet uses for
// packages recompiled with their test files.
func NormalizeImportPath(p string) string {
	if i := strings.Index(p, " ["); i >= 0 {
		return p[:i]
	}
	return p
}

// A Finding is one resolved diagnostic with its source position.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
}

// LoadModule loads every package of the module rooted at root into
// one lintkit.Module — the whole-module view the interprocedural
// analyzers require.
func LoadModule(root, modulePath string) (*lintkit.Module, error) {
	paths, err := lintkit.DiscoverModule(root, modulePath)
	if err != nil {
		return nil, err
	}
	loader := lintkit.NewModuleLoader(root, modulePath)
	var pkgs []*lintkit.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return lintkit.NewModule(pkgs), nil
}

// Check loads and analyzes the given module packages (import paths)
// with suppression directives honored, returning all surviving
// findings sorted per package. root is the module root directory. The
// whole module is loaded regardless of which packages are requested:
// reachability from //hot:entry and //alloc:free declarations crosses
// package borders.
func Check(root, modulePath string, importPaths []string) ([]Finding, error) {
	return check(root, modulePath, importPaths, false)
}

// CheckRaw is Check with suppression disabled: every violation is
// returned even if a //lint:ignore directive covers it. The guarantee
// test uses this to prove the hot quartet is clean without
// exceptions.
func CheckRaw(root, modulePath string, importPaths []string) ([]Finding, error) {
	return check(root, modulePath, importPaths, true)
}

func check(root, modulePath string, importPaths []string, raw bool) ([]Finding, error) {
	mod, err := LoadModule(root, modulePath)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, path := range importPaths {
		analyzers := AnalyzersFor(path)
		if len(analyzers) == 0 {
			continue
		}
		pkg := mod.Package(NormalizeImportPath(path))
		if pkg == nil {
			return nil, fmt.Errorf("simlint: package %s is not part of module %s", path, modulePath)
		}
		var diags []lintkit.Diagnostic
		if raw {
			diags, err = lintkit.RawDiagnosticsModule(mod, pkg, analyzers)
		} else {
			diags, err = lintkit.RunModule(mod, pkg, analyzers)
		}
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			out = append(out, Finding{
				Position: pkg.Fset.Position(d.Pos),
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}
	return out, nil
}

// A Suppression is one //lint:ignore directive somewhere in the
// module's non-test sources, as reported by cmd/simlint -suppressions.
type Suppression struct {
	File      string // path relative to the module root
	Line      int
	Analyzers []string // names in written order; empty when malformed
	Reason    string
}

func (s Suppression) String() string {
	names := strings.Join(s.Analyzers, ",")
	if names == "" {
		names = "(malformed)"
	}
	return fmt.Sprintf("%s:%d: %s: %s", s.File, s.Line, names, s.Reason)
}

// Suppressions inventories every //lint:ignore directive in the
// module, in deterministic (file, line) order. The guarantee test
// pins the count so a new suppression is always a deliberate diff.
func Suppressions(root, modulePath string) ([]Suppression, error) {
	mod, err := LoadModule(root, modulePath)
	if err != nil {
		return nil, err
	}
	var out []Suppression
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, d := range lintkit.FileDirectives(pkg.Fset, f) {
				rel, err := filepath.Rel(root, d.File)
				if err != nil {
					rel = d.File
				}
				reason := d.Reason
				if d.Malformed != "" {
					reason = "(malformed: " + d.Malformed + ")"
				}
				out = append(out, Suppression{
					File:      filepath.ToSlash(rel),
					Line:      d.Line,
					Analyzers: d.Analyzers,
					Reason:    reason,
				})
			}
		}
	}
	return out, nil
}
