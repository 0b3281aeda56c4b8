package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadSnippet type-checks one inline source file as a standalone package
// under an internal/ import path and returns the whole-program view over it
// (plus whatever module packages it imports).
func loadSnippet(t *testing.T, src string) *Program {
	t.Helper()
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snippet.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadFixture(dir, loader.ModulePath()+"/internal/testdata/snippet")
	if err != nil {
		t.Fatalf("load snippet: %v", err)
	}
	return NewProgram(loader, []*Package{pkg})
}

// snipName qualifies a snippet-level identifier with the snippet package path.
func snipName(prog *Program, name string) string {
	return prog.ModulePath + "/internal/testdata/snippet." + name
}

func mustFunc(t *testing.T, prog *Program, name string) *FuncInfo {
	t.Helper()
	fi := prog.LookupFunc(name)
	if fi == nil {
		var have []string
		for _, f := range prog.Funcs() {
			if strings.Contains(f.Name, "testdata/snippet") {
				have = append(have, f.Name)
			}
		}
		t.Fatalf("function %q not indexed; snippet functions: %v", name, have)
	}
	return fi
}

// edgeKinds returns the deduplicated caller→callee edge kinds, rendered as
// sorted "calleeName:kind" strings (kind as its EdgeKind number) for
// failure messages.
func edgeKinds(g *CallGraph, from *FuncInfo) []string {
	var out []string
	for _, e := range g.Out[from] {
		out = append(out, fmt.Sprintf("%s:%d", e.Callee.Name, e.Kind))
	}
	sort.Strings(out)
	return out
}

func hasEdge(g *CallGraph, from, to *FuncInfo, kind EdgeKind) bool {
	for _, e := range g.Out[from] {
		if e.Callee == to && e.Kind == kind {
			return true
		}
	}
	return false
}

const cgSnippet = `package snippet

import (
	"context"

	"mct/internal/engine"
	"mct/internal/obs"
)

type counter struct{ n int }

func (c *counter) bump() { c.n++ }

// closure returns a literal capturing the receiver: the literal is its own
// call-graph node with a call edge to the method.
func (c *counter) closure() func() {
	return func() { c.bump() }
}

func helper() {}

func direct() { helper() }

func iife() int {
	return func() int { return 1 }()
}

type shape interface{ area() float64 }

type square struct{ s float64 }

func (q square) area() float64 { return q.s * q.s }

type circle struct{ r float64 }

func (c circle) area() float64 { return 3 * c.r * c.r }

func dispatch(s shape) float64 { return s.area() }

// methodValue lets a bound method escape without calling it.
func methodValue(c *counter) func() {
	return c.bump
}

// mapTasks passes a closure as an engine.Map task: the closure escapes into
// the engine, so its body is reachable only over the ref edge.
func mapTasks(ctx context.Context) ([]int, error) {
	c := &counter{}
	return engine.Map(ctx, 4, engine.Options{}, func(ctx context.Context, i int) (int, error) {
		c.bump()
		return i, nil
	})
}

func onEvent(obs.Event) {}

// wire converts a named function to obs.TraceSink (a function type, not an
// interface): the function escapes as a value.
func wire() obs.TraceSink {
	return obs.TraceSink(onEvent)
}

// emit calls through a function-typed value: statically unresolvable.
func emit(sink obs.TraceSink, ev obs.Event) {
	sink(ev)
}

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

func self(n int) int {
	if n <= 0 {
		return 0
	}
	return self(n-1) + 1
}
`

func TestCallGraphDirectCallsAndLiterals(t *testing.T) {
	prog := loadSnippet(t, cgSnippet)
	g := prog.CallGraph()

	direct := mustFunc(t, prog, snipName(prog, "direct"))
	helper := mustFunc(t, prog, snipName(prog, "helper"))
	if !hasEdge(g, direct, helper, EdgeCall) {
		t.Errorf("direct → helper: want a call edge, got %v", edgeKinds(g, direct))
	}

	// An immediately-invoked literal is a call to the literal's node.
	iife := mustFunc(t, prog, snipName(prog, "iife"))
	iifeLit := mustFunc(t, prog, snipName(prog, "iife")+"$1")
	if !hasEdge(g, iife, iifeLit, EdgeCall) {
		t.Errorf("iife → iife$1: want a call edge, got %v", edgeKinds(g, iife))
	}
}

func TestCallGraphClosureCapturingReceiver(t *testing.T) {
	prog := loadSnippet(t, cgSnippet)
	g := prog.CallGraph()

	closure := mustFunc(t, prog, "(*"+snipName(prog, "counter")+").closure")
	lit := mustFunc(t, prog, closure.Name+"$1")
	bump := mustFunc(t, prog, "(*"+snipName(prog, "counter")+").bump")

	// The returned literal escapes (ref), and the literal's own node calls
	// the captured receiver's method.
	if !hasEdge(g, closure, lit, EdgeRef) {
		t.Errorf("closure → closure$1: want a ref edge, got %v", edgeKinds(g, closure))
	}
	if !hasEdge(g, lit, bump, EdgeCall) {
		t.Errorf("closure$1 → bump: want a call edge, got %v", edgeKinds(g, lit))
	}
	if hasEdge(g, closure, lit, EdgeCall) {
		t.Error("closure → closure$1 must not be a call edge: the literal is returned, not invoked")
	}
}

func TestCallGraphMethodValueEscapes(t *testing.T) {
	prog := loadSnippet(t, cgSnippet)
	g := prog.CallGraph()

	mv := mustFunc(t, prog, snipName(prog, "methodValue"))
	bump := mustFunc(t, prog, "(*"+snipName(prog, "counter")+").bump")
	if !hasEdge(g, mv, bump, EdgeRef) {
		t.Errorf("methodValue → bump: want a ref edge, got %v", edgeKinds(g, mv))
	}
	if hasEdge(g, mv, bump, EdgeCall) {
		t.Error("methodValue → bump must not be a call edge: the method value is returned, not invoked")
	}

	// A named function converted to obs.TraceSink escapes the same way.
	wire := mustFunc(t, prog, snipName(prog, "wire"))
	onEvent := mustFunc(t, prog, snipName(prog, "onEvent"))
	if !hasEdge(g, wire, onEvent, EdgeRef) {
		t.Errorf("wire → onEvent: want a ref edge, got %v", edgeKinds(g, wire))
	}

	// Calling through a function-typed value resolves to nothing.
	emit := mustFunc(t, prog, snipName(prog, "emit"))
	if out := g.Out[emit]; len(out) != 0 {
		t.Errorf("emit has %d out edges, want 0 (call through func value is dynamic): %v", len(out), edgeKinds(g, emit))
	}
}

func TestCallGraphEngineMapTask(t *testing.T) {
	prog := loadSnippet(t, cgSnippet)
	g := prog.CallGraph()

	mt := mustFunc(t, prog, snipName(prog, "mapTasks"))
	lit := mustFunc(t, prog, snipName(prog, "mapTasks")+"$1")
	bump := mustFunc(t, prog, "(*"+snipName(prog, "counter")+").bump")
	engMap := prog.LookupFunc("mct/internal/engine.Map")
	if engMap == nil {
		t.Fatal("engine.Map not indexed: the program view must include imported module packages")
	}
	if !hasEdge(g, mt, engMap, EdgeCall) {
		t.Errorf("mapTasks → engine.Map: want a call edge, got %v", edgeKinds(g, mt))
	}
	if !hasEdge(g, mt, lit, EdgeRef) {
		t.Errorf("mapTasks → mapTasks$1: want a ref edge (task escapes into the engine), got %v", edgeKinds(g, mt))
	}

	// Reachability over all edge kinds reaches the task body and its callees;
	// over call edges alone it must not — the task is never invoked
	// syntactically by mapTasks.
	all := g.Reachable([]*FuncInfo{mt})
	if d, ok := all[bump]; !ok || d != 2 {
		t.Errorf("bump depth over all edges = %d (ok=%v), want 2 (mapTasks → $1 → bump)", d, ok)
	}
	callsOnly := g.Reachable([]*FuncInfo{mt}, EdgeCall, EdgeDispatch)
	if _, ok := callsOnly[lit]; ok {
		t.Error("task literal must be unreachable over call/dispatch edges alone")
	}
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog := loadSnippet(t, cgSnippet)
	g := prog.CallGraph()

	disp := mustFunc(t, prog, snipName(prog, "dispatch"))
	sq := mustFunc(t, prog, "("+snipName(prog, "square")+").area")
	ci := mustFunc(t, prog, "("+snipName(prog, "circle")+").area")
	if !hasEdge(g, disp, sq, EdgeDispatch) || !hasEdge(g, disp, ci, EdgeDispatch) {
		t.Errorf("dispatch: want dispatch edges to both area implementations, got %v", edgeKinds(g, disp))
	}
	if len(g.Out[disp]) != 2 {
		t.Errorf("dispatch has %d out edges, want exactly the 2 implementers: %v", len(g.Out[disp]), edgeKinds(g, disp))
	}
}

func TestCallGraphSCCs(t *testing.T) {
	prog := loadSnippet(t, cgSnippet)
	g := prog.CallGraph()

	even := mustFunc(t, prog, snipName(prog, "even"))
	odd := mustFunc(t, prog, snipName(prog, "odd"))
	direct := mustFunc(t, prog, snipName(prog, "direct"))
	helper := mustFunc(t, prog, snipName(prog, "helper"))
	self := mustFunc(t, prog, snipName(prog, "self"))

	// Reverse topological order: every callee's SCC precedes its caller's.
	sccIndex := map[*FuncInfo]int{}
	for i, scc := range g.SCCs() {
		for _, fn := range scc {
			sccIndex[fn] = i
		}
	}
	if sccIndex[even] == sccIndex[direct] {
		t.Error("even and direct must not share an SCC")
	}
	if sccIndex[helper] >= sccIndex[direct] {
		t.Errorf("helper's SCC (%d) must precede direct's (%d): bottom-up solvers need callees first",
			sccIndex[helper], sccIndex[direct])
	}
	if sccIndex[even] != sccIndex[odd] {
		t.Errorf("even (%d) and odd (%d) must share an SCC index", sccIndex[even], sccIndex[odd])
	}
	_ = self // self-recursion is exercised by the solver test below
}

// TestSummarySolverConvergence runs the solver with a transitive-callee-set
// summary: over recursion the fixpoint must close the cycle (each member of
// a recursive SCC sees every other member in its own summary) and terminate.
func TestSummarySolverConvergence(t *testing.T) {
	prog := loadSnippet(t, cgSnippet)
	g := prog.CallGraph()

	computeCalls := 0
	solver := &SummarySolver[map[string]bool]{
		Graph:  g,
		Bottom: func() map[string]bool { return nil },
		Compute: func(fn *FuncInfo, get func(*FuncInfo) map[string]bool) map[string]bool {
			computeCalls++
			out := map[string]bool{}
			for _, e := range g.Out[fn] {
				if !callEdge(e.Kind) {
					continue
				}
				out[e.Callee.Name] = true
				for k := range get(e.Callee) {
					out[k] = true
				}
			}
			return out
		},
		Equal: func(a, b map[string]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	}
	sums := solver.Solve()

	even := mustFunc(t, prog, snipName(prog, "even"))
	odd := mustFunc(t, prog, snipName(prog, "odd"))
	self := mustFunc(t, prog, snipName(prog, "self"))

	// Mutual recursion: the transitive closure of each member contains both.
	for _, fn := range []*FuncInfo{even, odd} {
		s := sums[fn]
		if !s[even.Name] || !s[odd.Name] {
			t.Errorf("%s summary = %v, want both even and odd (cycle closed)", fn.Name, keysOf(s))
		}
	}
	// Self-recursion: the self-loop makes the function its own transitive
	// callee, which requires at least a second fixpoint round.
	if s := sums[self]; !s[self.Name] {
		t.Errorf("self summary = %v, want self itself (self-loop closed)", keysOf(s))
	}
	// Termination sanity: the rounds cap bounds Compute invocations.
	if max := len(g.Nodes) * (8 + 2*len(g.Nodes)); computeCalls > max {
		t.Errorf("solver ran Compute %d times, over the %d cap — fixpoint did not settle", computeCalls, max)
	}

	// Non-recursive nodes get exactly one Compute pass with final callee
	// summaries: direct's summary is helper alone.
	direct := mustFunc(t, prog, snipName(prog, "direct"))
	helper := mustFunc(t, prog, snipName(prog, "helper"))
	if s := sums[direct]; len(s) != 1 || !s[helper.Name] {
		t.Errorf("direct summary = %v, want exactly {helper}", keysOf(s))
	}
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
