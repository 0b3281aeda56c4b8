// Dynamic cross-check of the static allochot audit: the inner loop's
// measured allocation rate must agree with what the worklist says — the
// only allocation sites reachable from the Machine.step hotpath root are
// the explicitly suppressed amortized NVM queue appends, so the warmed-up
// steady state allocates (almost) nothing per access.
package sim

import (
	"os"
	"path/filepath"
	"testing"

	"mct/internal/analysis"
	"mct/internal/config"
	"mct/internal/trace"
)

func BenchmarkMachineStep(b *testing.B) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMachine(spec, config.Default(), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	m.RunAccesses(10000) // warm the caches and queue capacities
	b.ReportAllocs()
	b.ResetTimer()
	m.RunAccesses(b.N)
}

// BenchmarkBatchedStepLoop measures the pure streaming inner loop — Fill a
// reusable batch from the generator, StepBatch it through the machine —
// with no window accounting. This is the loop long streaming runs spend
// their lives in; TestBatchedStepLoopZeroAllocs pins it at exactly 0
// allocs/op, and `make bench-smoke` reports its per-access cost.
func BenchmarkBatchedStepLoop(b *testing.B) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMachine(spec, config.Default(), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	m.RunAccesses(100_000) // steady state: caches warm, queue capacities amortized
	buf := m.batchBuf()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := len(buf)
		if rem := b.N - done; k > rem {
			k = rem
		}
		m.cores[0].gen.Fill(buf[:k])
		m.StepBatch(buf[:k])
		done += k
	}
}

// TestBatchedStepLoopZeroAllocs: the steady-state batched step loop must
// allocate nothing at all — not amortized-little, zero. The reusable batch
// buffer is filled in place and every queue has reached its amortized
// capacity, so any allocation here is a regression in the streaming hot
// path (the per-access cost that multi-billion-access runs multiply). The
// 4-core mix1 machine's per-access scheduler loop must allocate nothing
// either.
func TestBatchedStepLoopZeroAllocs(t *testing.T) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(spec, config.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m.RunAccesses(100_000)
	buf := m.batchBuf()
	avg := testing.AllocsPerRun(10, func() {
		m.cores[0].gen.Fill(buf)
		m.StepBatch(buf)
	})
	if avg != 0 {
		t.Errorf("steady-state batched step loop allocates %.2f objects per %d-access batch, want exactly 0", avg, len(buf))
	}

	// The multi-core scheduler loop (least-advanced core steps next, one
	// access at a time) is held to the same zero.
	specs, err := trace.MixByName("mix1")
	if err != nil {
		t.Fatal(err)
	}
	mm, err := NewMultiMachine(specs, config.StaticBaseline(), DefaultMultiOptions())
	if err != nil {
		t.Fatal(err)
	}
	mm.runOwn(400_000)
	avg = testing.AllocsPerRun(10, func() { mm.runOwn(StepBatchSize) })
	if avg != 0 {
		t.Errorf("steady-state 4-core step loop allocates %.2f objects per %d accesses, want exactly 0", avg, StepBatchSize)
	}
}

// BenchmarkTieredBatchedStepLoop is the hybrid-pipeline twin of
// BenchmarkBatchedStepLoop: the same streaming inner loop with the DRAM
// cache tier interposed, so `make bench-smoke` reports the tier's
// per-access cost next to the stock pipeline's.
func BenchmarkTieredBatchedStepLoop(b *testing.B) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Tiers = config.TierConfig{DRAMCache: true, DRAMPromoteThreshold: 1}
	m, err := NewMachine(spec, config.Default(), opt)
	if err != nil {
		b.Fatal(err)
	}
	m.RunAccesses(100_000)
	buf := m.batchBuf()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := len(buf)
		if rem := b.N - done; k > rem {
			k = rem
		}
		m.cores[0].gen.Fill(buf[:k])
		m.StepBatch(buf[:k])
		done += k
	}
}

// TestTieredBatchedStepLoopZeroAllocs pins the same exactly-0 gate on the
// hybrid DRAM–NVM pipeline: the tier seam is interface dispatch (no
// boxing), and every dram.Cache method is allocation-free by construction
// (flat SoA lanes, no maps), so inserting the tier must not cost a single
// object on the streaming hot path.
func TestTieredBatchedStepLoopZeroAllocs(t *testing.T) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Tiers = config.TierConfig{DRAMCache: true, DRAMPromoteThreshold: 1}
	m, err := NewMachine(spec, config.Default(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m.RunAccesses(100_000)
	if st := m.dramStats(); st.Hits+st.Misses == 0 {
		t.Fatal("tiered warmup drove no DRAM traffic; the gate exercises nothing")
	}
	buf := m.batchBuf()
	avg := testing.AllocsPerRun(10, func() {
		m.cores[0].gen.Fill(buf)
		m.StepBatch(buf)
	})
	if avg != 0 {
		t.Errorf("tiered steady-state batched step loop allocates %.2f objects per %d-access batch, want exactly 0", avg, len(buf))
	}
}

// TestStepSteadyStateAllocs is the measurement half of the cross-check: a
// warmed machine runs thousands of accesses with a per-access allocation
// budget far below one. The bound is loose (windowMetrics itself allocates
// its result maps once per RunAccesses call) but fails loudly if an
// unsuppressed per-access allocation sneaks into the hot path.
func TestStepSteadyStateAllocs(t *testing.T) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(spec, config.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m.RunAccesses(20000) // warm: queue capacities reach steady state

	const accesses = 2000
	avg := testing.AllocsPerRun(5, func() {
		m.RunAccesses(accesses)
	})
	// windowMetrics allocates a bounded handful of objects per call; the
	// budget of 0.05 allocs/access (100 per window) leaves room for that
	// plus rare amortized queue growth, and nothing else.
	if perAccess := avg / accesses; perAccess > 0.05 {
		t.Errorf("hot path allocates %.4f objects per access (%.0f per %d-access window); "+
			"the allochot worklist promises only amortized queue appends", perAccess, avg, accesses)
	}
}

// TestStepWorklistMatchesSuppressions is the static half: every allocation
// site the audit finds under the streaming hot-path roots — Machine.step,
// the batched Machine.StepBatch, and the generator's Next/Fill — must be
// one of the reasoned //mctlint:ignore sites in internal/nvm (the amortized
// queue appends). A new entry here means either hoist the allocation or
// argue its amortization in a suppression — and extend this list.
func TestStepWorklistMatchesSuppressions(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the module tree")
	}
	loader, err := analysis.NewLoader(moduleRootDir(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(loader.ModulePath() + "/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	prog := analysis.NewProgram(loader, []*analysis.Package{pkg})

	roots := map[string]struct {
		allowed   map[string]bool
		wantSites bool // the root must reach at least one (suppressed) site
	}{
		"(*" + loader.ModulePath() + "/internal/sim.Machine).step": {
			allowed: map[string]bool{
				// The three amortized NVM queue appends, each carrying a
				// reasoned ignore directive at the site.
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).Read":       true,
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).Write":      true,
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).EagerWrite": true,
			},
			wantSites: true,
		},
		// The batched loop reaches exactly what step reaches: batching
		// amortizes call overhead, it must not introduce allocations.
		"(*" + loader.ModulePath() + "/internal/sim.Machine).StepBatch": {
			allowed: map[string]bool{
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).Read":       true,
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).Write":      true,
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).EagerWrite": true,
			},
			wantSites: true,
		},
		// The generator side of the streaming loop is allocation-free
		// outright: Fill writes into the caller-owned batch.
		"(*" + loader.ModulePath() + "/internal/trace.Generator).Fill": {allowed: map[string]bool{}},
		"(*" + loader.ModulePath() + "/internal/trace.Generator).Next": {allowed: map[string]bool{}},
		// The DRAM tier's hot-path methods allocate nothing themselves;
		// their forwarding edges (miss, eviction, eager pass-through) reach
		// only the suppressed NVM queue appends below.
		"(*" + loader.ModulePath() + "/internal/dram.Cache).Read": {
			allowed: map[string]bool{
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).Read":       true,
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).Write":      true,
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).EagerWrite": true,
			},
			wantSites: true,
		},
		"(*" + loader.ModulePath() + "/internal/dram.Cache).Write": {
			allowed: map[string]bool{
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).Read":       true,
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).Write":      true,
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).EagerWrite": true,
			},
			wantSites: true,
		},
		"(*" + loader.ModulePath() + "/internal/dram.Cache).EagerWrite": {
			allowed: map[string]bool{
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).Read":       true,
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).Write":      true,
				"(*" + loader.ModulePath() + "/internal/nvm.Controller).EagerWrite": true,
			},
			wantSites: true,
		},
	}
	worklist := analysis.AllochotWorklist(prog)
	for root, want := range roots {
		if prog.LookupFunc(root) == nil {
			t.Errorf("hot-path root %s not found in the call graph; the audit root or the cross-check is broken", root)
			continue
		}
		seen := 0
		for _, site := range worklist {
			if !underRoot(prog, root, site.Func) {
				continue
			}
			seen++
			if !want.allowed[site.Func] {
				t.Errorf("unexpected allocation site %s under hot-path root %s (%s at %s:%d); hoist it or add a reasoned suppression",
					site.Func, root, site.Kind, site.Pos.Filename, site.Pos.Line)
			}
		}
		if want.wantSites && seen == 0 {
			t.Errorf("worklist found no sites under %s; the audit root or the cross-check is broken", root)
		}
	}
}

// underRoot reports whether fn is reachable from the named root in the
// program's call graph.
func underRoot(prog *analysis.Program, root, fn string) bool {
	r := prog.LookupFunc(root)
	target := prog.LookupFunc(fn)
	if r == nil || target == nil {
		return false
	}
	_, ok := prog.CallGraph().Reachable([]*analysis.FuncInfo{r})[target]
	return ok
}

// moduleRootDir resolves the go.mod directory (two levels above this
// package).
func moduleRootDir(t *testing.T) string {
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
