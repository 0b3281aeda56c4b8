package analysis

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe matches trailing fixture markers of the form "// want rule [rule...]".
var wantRe = regexp.MustCompile(`//\s*want\s+([a-z][a-z ]*)$`)

func moduleRoot(t testing.TB) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Clean(filepath.Join(wd, "..", ".."))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	return root
}

// fixtureWants scans a fixture directory's .go files for "// want <rule>..."
// markers and returns the expected findings as "file:line rule" strings, one
// entry per rule occurrence on the marker.
func fixtureWants(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, rule := range strings.Fields(m[1]) {
				want = append(want, fmt.Sprintf("%s:%d %s", name, line, rule))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// loadFixture type-checks testdata/src/<rule> under an internal/ import path
// (so internal-scoped rules apply) and returns the surviving findings of the
// analyzers given. Package-scoped analyzers run over the fixture package
// alone; program-scoped analyzers run over a whole-program view of the
// fixture plus whatever module packages it imports.
func loadFixture(t *testing.T, rule string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	return loadFixtureAs(t, filepath.Join("testdata", "src", rule), "internal/testdata/"+rule, analyzers)
}

// loadFixtureAs is loadFixture for a fixture directory type-checked under
// the module-relative import path rel.
func loadFixtureAs(t *testing.T, dir, rel string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadFixture(dir, loader.ModulePath()+"/"+rel)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	diags := RunAnalyzers(NewPass(loader, pkg), analyzers)
	for _, a := range analyzers {
		if a.Interprocedural() {
			prog := NewProgram(loader, []*Package{pkg})
			diags = append(diags, RunProgramAnalyzers(prog, analyzers)...)
			sortDiagnostics(diags)
			break
		}
	}
	return diags
}

// TestAnalyzerFixtures asserts, for every registered rule, that the rule
// fires exactly on its fixture's "// want" lines — which also proves that
// //mctlint:ignore directives suppress findings, since every fixture contains
// suppressed violations with no marker.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			matchWants(t, a.Name, filepath.Join("testdata", "src", a.Name),
				loadFixture(t, a.Name, []*Analyzer{a}))
		})
	}
}

// TestGoLeakInsideEngine runs goleak over a fixture type-checked as an
// engine package, where the package's own members are tracking evidence: a
// goroutine that mentions only another package (time.Sleep) or only a
// local must still be reported, although go/types gives a package name and
// a local the Pkg they appear in.
func TestGoLeakInsideEngine(t *testing.T) {
	dir := filepath.Join("testdata", "src", "goleak", "engine")
	matchWants(t, "goleak", dir,
		loadFixtureAs(t, dir, "internal/testdata/goleak/internal/engine", []*Analyzer{GoLeak}))
}

// matchWants requires rule's findings among diags to sit exactly on the
// "// want" lines of the fixture in dir.
func matchWants(t *testing.T, rule, dir string, diags []Diagnostic) {
	t.Helper()
	var got []string
	for _, d := range diags {
		if d.Rule != rule {
			continue
		}
		got = append(got, fmt.Sprintf("%s:%d %s",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule))
	}
	want := fixtureWants(t, dir)
	if len(want) == 0 {
		t.Fatalf("fixture for %s has no want markers", rule)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings mismatch for %s\n got: %v\nwant: %v", rule, got, want)
	}
}

// TestMalformedIgnoreReported asserts that a directive without a reason and
// a directive naming a rule outside the registry are each reported under the
// reserved rule "mctlint" (the norandglobal fixture carries one of each in
// badignore.go) and — via the want markers on the lines below the
// directives — that neither suppresses anything. The registry check uses
// the full registry even though only norandglobal runs here.
func TestMalformedIgnoreReported(t *testing.T) {
	diags := loadFixture(t, "norandglobal", []*Analyzer{NoRandGlobal})
	var got []string
	for _, d := range diags {
		if d.Rule == "mctlint" {
			got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message))
		}
	}
	want := []string{
		"badignore.go:9 malformed ignore directive: want //mctlint:ignore <rule> <reason>",
		`badignore.go:17 ignore directive names unknown rule "norandglobl" (see mctlint -rules)`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("directive findings mismatch\n got: %v\nwant: %v", got, want)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "internal/sim/sim.go", Line: 42},
		Rule:    "floateq",
		Message: "== on float64 operands",
	}
	const want = "internal/sim/sim.go:42: [floateq] == on float64 operands"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestModuleTreeClean is the in-repo form of the acceptance criterion
// "go run ./cmd/mctlint ./... exits 0": every package of the module must be
// free of findings under the full registry.
func TestModuleTreeClean(t *testing.T) {
	root := moduleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("suspiciously few packages found: %v", paths)
	}
	// The linter must lint itself: the default walk has to cover the
	// analysis framework and the driver, not just the simulator packages.
	mod := loader.ModulePath()
	for _, self := range []string{mod + "/internal/analysis", mod + "/cmd/mctlint"} {
		found := false
		for _, p := range paths {
			if p == self {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("default walk misses %s; the linter would not lint itself", self)
		}
	}
	var all []*Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		all = append(all, pkg)
		for _, d := range RunAnalyzers(NewPass(loader, pkg), Analyzers()) {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	// The interprocedural rules must hold over the whole tree too: this is
	// the in-repo proof that no lock is held past return and that the hot
	// path carries no unsanctioned allocations.
	prog := NewProgram(loader, all)
	for _, d := range RunProgramAnalyzers(prog, Analyzers()) {
		t.Errorf("unexpected program finding: %s", d)
	}
}
