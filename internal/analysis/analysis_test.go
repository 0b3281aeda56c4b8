package analysis

import (
	"bufio"
	"fmt"
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
// analyzers given.
func loadFixture(t *testing.T, rule string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", rule)
	pkg, err := loader.loadDirAs(dir, loader.ModulePath()+"/internal/testdata/"+rule)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	return RunAnalyzers(NewPass(loader, pkg), analyzers)
}

// TestAnalyzerFixtures asserts, for every registered rule, that the rule
// fires exactly on its fixture's "// want" lines — which also proves that
// //mctlint:ignore directives suppress findings, since every fixture contains
// suppressed violations with no marker.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			var got []string
			for _, d := range loadFixture(t, a.Name, []*Analyzer{a}) {
				if d.Rule == a.Name {
					got = append(got, fmt.Sprintf("%s:%d %s",
						filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule))
				}
			}
			want := fixtureWants(t, filepath.Join("testdata", "src", a.Name))
			if len(want) == 0 {
				t.Fatalf("fixture for %s has no want markers", a.Name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("findings mismatch for %s\n got: %v\nwant: %v", a.Name, got, want)
			}
		})
	}
}

// TestMalformedIgnoreReported asserts that a directive without a reason and
// a directive naming a rule outside the registry are each reported under the
// reserved rule "mctlint" (the floateq fixture carries one of each in
// badignore.go) and — via the want markers on the lines below the
// directives — that neither suppresses anything. The registry check uses
// the full registry even though only floateq runs here.
func TestMalformedIgnoreReported(t *testing.T) {
	diags := loadFixture(t, "floateq", []*Analyzer{FloatEq})
	var got []string
	for _, d := range diags {
		if d.Rule == "mctlint" {
			got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message))
		}
	}
	want := []string{
		"badignore.go:7 malformed ignore directive: want //mctlint:ignore <rule> <reason>",
		`badignore.go:15 ignore directive names unknown rule "floateqq" (see mctlint -rules)`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("directive findings mismatch\n got: %v\nwant: %v", got, want)
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
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		for _, d := range RunAnalyzers(NewPass(loader, pkg), Analyzers()) {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}
