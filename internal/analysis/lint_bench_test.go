package analysis

import (
	"os"
	"strconv"
	"testing"
	"time"
)

// runFullLint runs the full registry — package passes plus the
// interprocedural program passes — over every module package, exactly like
// `mctlint ./...`, and returns the finding count.
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
	var all []*Package
	n := 0
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			tb.Fatalf("load %s: %v", p, err)
		}
		all = append(all, pkg)
		n += len(RunAnalyzers(NewPass(loader, pkg), Analyzers()))
	}
	prog := NewProgram(loader, all)
	n += len(RunProgramAnalyzers(prog, Analyzers()))
	return n
}

// BenchmarkLintTree measures one full-registry pass over the module: the
// number to watch when adding whole-program analyses.
func BenchmarkLintTree(b *testing.B) {
	root := moduleRoot(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runFullLint(b, root)
	}
}

// TestLintTreeWallClockBudget is the CI ceiling: a full mctlint run
// (package and interprocedural rules, cold caches) must
// finish inside the budget, so a new whole-program pass cannot silently
// blow up lint time.
// Override with MCTLINT_BUDGET_SECONDS; the default leaves generous
// headroom over the observed single-digit-second runtime.
func TestLintTreeWallClockBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock budget check skipped in -short")
	}
	budget := 120 * time.Second
	if s := os.Getenv("MCTLINT_BUDGET_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil || secs <= 0 {
			t.Fatalf("MCTLINT_BUDGET_SECONDS=%q: want a positive integer", s)
		}
		budget = time.Duration(secs) * time.Second
	}
	start := time.Now()
	runFullLint(t, moduleRoot(t))
	elapsed := time.Since(start)
	t.Logf("full lint pass: %v (budget %v)", elapsed, budget)
	if elapsed > budget {
		t.Fatalf("full mctlint pass took %v, over the %v budget", elapsed, budget)
	}
}
