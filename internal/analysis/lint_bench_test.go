package analysis

import (
	"testing"
	"time"
)

// runFullLint runs the full registry over every module package, exactly
// like `mctlint ./...`, and returns the finding count.
func runFullLint(tb testing.TB, root string) int {
	tb.Helper()
	loader, err := NewLoader(root)
	if err != nil {
		tb.Fatal(err)
	}
	paths, err := loader.PackageDirs(root)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			tb.Fatalf("load %s: %v", p, err)
		}
		n += len(RunAnalyzers(NewPass(loader, pkg), Analyzers()))
	}
	return n
}

// BenchmarkLintTree measures one full-registry pass over the module: the
// number to watch when adding a rule.
func BenchmarkLintTree(b *testing.B) {
	root := moduleRoot(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runFullLint(b, root)
	}
}

// TestLintTreeWallClockBudget is the CI ceiling: a full mctlint run (cold
// caches) must finish inside the budget, so a new rule cannot silently
// blow up lint time. The budget leaves generous headroom over the observed
// single-digit-second runtime.
func TestLintTreeWallClockBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock budget check skipped in -short")
	}
	const budget = 120 * time.Second
	start := time.Now()
	runFullLint(t, moduleRoot(t))
	elapsed := time.Since(start)
	t.Logf("full lint pass: %v (budget %v)", elapsed, budget)
	if elapsed > budget {
		t.Fatalf("full mctlint pass took %v, over the %v budget", elapsed, budget)
	}
}
