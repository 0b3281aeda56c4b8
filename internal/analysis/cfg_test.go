package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildCFG parses a single function body and returns its CFG.
func buildCFG(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	fn := file.Decls[0].(*ast.FuncDecl)
	return NewCFG(fn)
}

// blockByDesc returns the first block with the given description.
func blockByDesc(t *testing.T, g *CFG, desc string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		if b.Desc == desc {
			return b
		}
	}
	t.Fatalf("no block %q in %v", desc, g.Blocks)
	return nil
}

func TestCFGStraightLine(t *testing.T) {
	g := buildCFG(t, "x := 1\n_ = x")
	if len(g.Entry.Nodes) != 2 {
		t.Errorf("entry holds %d nodes, want 2", len(g.Entry.Nodes))
	}
	if !g.ReachableFrom(g.Entry)[g.Exit] {
		t.Error("exit unreachable from entry")
	}
	if g.InLoop(g.Entry) {
		t.Error("straight-line entry reported as in a loop")
	}
}

func TestCFGBranch(t *testing.T) {
	g := buildCFG(t, `
	x := 0
	if x > 0 {
		x = 1
	} else {
		x = 2
	}
	_ = x`)
	then := blockByDesc(t, g, "if.then")
	els := blockByDesc(t, g, "if.else")
	after := blockByDesc(t, g, "if.after")
	reach := g.ReachableFrom(g.Entry)
	for _, b := range []*Block{then, els, after, g.Exit} {
		if !reach[b] {
			t.Errorf("%v unreachable from entry", b)
		}
	}
	// Both arms must flow into the join block.
	if len(after.Preds) != 2 {
		t.Errorf("if.after has %d preds, want 2 (then+else)", len(after.Preds))
	}
}

func TestCFGIfWithoutElse(t *testing.T) {
	g := buildCFG(t, `
	x := 0
	if x > 0 {
		x = 1
	}
	_ = x`)
	after := blockByDesc(t, g, "if.after")
	// Condition-false path and then-arm both reach the join.
	if len(after.Preds) != 2 {
		t.Errorf("if.after has %d preds, want 2 (cond+then)", len(after.Preds))
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	g := buildCFG(t, `
	for i := 0; i < 10; i++ {
		_ = i
	}`)
	body := blockByDesc(t, g, "for.body")
	head := blockByDesc(t, g, "for.head")
	if !g.InLoop(body) {
		t.Error("for.body not detected as in a loop")
	}
	if !g.InLoop(head) {
		t.Error("for.head not detected as in a loop")
	}
	after := blockByDesc(t, g, "for.after")
	if g.InLoop(after) {
		t.Error("for.after wrongly in a loop")
	}
	if !g.ReachableFrom(g.Entry)[g.Exit] {
		t.Error("exit unreachable (loop may exit)")
	}
}

func TestCFGInfiniteLoopUnreachableExit(t *testing.T) {
	g := buildCFG(t, `
	for {
		_ = 1
	}
	println("after")`)
	if g.ReachableFrom(g.Entry)[g.Exit] {
		t.Error("exit reachable through a condition-less for with no break")
	}
	if !g.InLoop(blockByDesc(t, g, "for.body")) {
		t.Error("infinite loop body not in a loop")
	}
}

func TestCFGLoopBreakReachesExit(t *testing.T) {
	g := buildCFG(t, `
	for {
		break
	}
	println("after")`)
	if !g.ReachableFrom(g.Entry)[g.Exit] {
		t.Error("break does not reach code after an infinite loop")
	}
}

func TestCFGRange(t *testing.T) {
	g := buildCFG(t, `
	m := map[int]int{}
	for k := range m {
		_ = k
	}`)
	body := blockByDesc(t, g, "range.body")
	if !g.InLoop(body) {
		t.Error("range body not in a loop")
	}
	after := blockByDesc(t, g, "range.after")
	if g.InLoop(after) {
		t.Error("range.after wrongly in a loop")
	}
}

func TestCFGReturnTerminates(t *testing.T) {
	g := buildCFG(t, `
	x := 1
	if x > 0 {
		return
	}
	_ = x`)
	// The statement after the if must be reachable only via the
	// condition-false path, and the return must edge into Exit.
	then := blockByDesc(t, g, "if.then")
	found := false
	for _, s := range then.Succs {
		if s == g.Exit {
			found = true
		}
	}
	if !found {
		t.Error("return block does not edge into Exit")
	}
	after := blockByDesc(t, g, "if.after")
	if len(after.Preds) != 1 {
		t.Errorf("statement after early return has %d preds, want 1", len(after.Preds))
	}
}

func TestCFGPanicTerminatesPath(t *testing.T) {
	g := buildCFG(t, `
	x := 1
	if x > 0 {
		panic("boom")
	}
	_ = x`)
	then := blockByDesc(t, g, "if.then")
	edgesExit := false
	for _, s := range then.Succs {
		if s == g.Exit {
			edgesExit = true
		}
	}
	if !edgesExit {
		t.Error("panic block does not edge into Exit")
	}
	if len(then.Succs) != 1 {
		t.Errorf("panic block has %d succs, want only Exit", len(then.Succs))
	}
}

func TestCFGUnreachableAfterReturn(t *testing.T) {
	g := buildCFG(t, `
	return
	println("dead")`)
	reach := g.ReachableFrom(g.Entry)
	dead := blockByDesc(t, g, "unreachable")
	if reach[dead] {
		t.Error("code after unconditional return reported reachable")
	}
}

func TestCFGFuncLitIsOpaque(t *testing.T) {
	g := buildCFG(t, `
	f := func() {
		for {
			defer println("x")
		}
	}
	f()`)
	for _, b := range g.Blocks {
		if strings.HasPrefix(b.Desc, "for") {
			t.Errorf("outer CFG grew loop block %v from a nested literal", b)
		}
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				t.Errorf("outer CFG block %v holds a defer from a nested literal", b)
			}
		}
	}
}

func TestCFGGoto(t *testing.T) {
	g := buildCFG(t, `
	i := 0
loop:
	i++
	if i < 10 {
		goto loop
	}`)
	lbl := blockByDesc(t, g, "label.loop")
	if !g.InLoop(lbl) {
		t.Error("goto back-edge not detected as a loop")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	g := buildCFG(t, `
	x := 1
	switch x {
	case 1:
		x = 10
		fallthrough
	case 2:
		x = 20
	default:
		x = 30
	}
	_ = x`)
	// Three clause blocks, all reachable; the first falls through into the
	// second.
	var cases []*Block
	for _, b := range g.Blocks {
		if b.Desc == "case" {
			cases = append(cases, b)
		}
	}
	if len(cases) != 3 {
		t.Fatalf("found %d case blocks, want 3", len(cases))
	}
	ft := false
	for _, s := range cases[0].Succs {
		if s == cases[1] {
			ft = true
		}
	}
	if !ft {
		t.Error("fallthrough edge from case 1 to case 2 missing")
	}
	reach := g.ReachableFrom(g.Entry)
	for i, c := range cases {
		if !reach[c] {
			t.Errorf("case %d unreachable", i)
		}
	}
}

func TestCFGSelect(t *testing.T) {
	g := buildCFG(t, `
	ch := make(chan int)
	select {
	case v := <-ch:
		_ = v
	case ch <- 1:
	}
	println("after")`)
	after := blockByDesc(t, g, "switch.after")
	// A select without default only proceeds through a case: both cases
	// (and nothing else) feed the after block.
	if len(after.Preds) != 2 {
		t.Errorf("select after-block has %d preds, want 2 (one per case)", len(after.Preds))
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	g := buildCFG(t, `
outer:
	for {
		for {
			break outer
		}
	}
	println("after")`)
	if !g.ReachableFrom(g.Entry)[g.Exit] {
		t.Error("labeled break out of nested infinite loops does not reach exit")
	}
}

// TestForwardSolveReachingAssignments runs a small reaching-facts problem —
// "which println-ed strings may have been executed before this block" — and
// checks branch, loop and panic behavior of the solver.
func TestForwardSolveReachingAssignments(t *testing.T) {
	g := buildCFG(t, `
	println("a")
	x := 0
	if x > 0 {
		println("b")
		panic("dead end")
	}
	for i := 0; i < 3; i++ {
		println("c")
	}
	println("d")`)

	lits := func(b *Block) []string {
		var out []string
		for _, n := range b.Nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "println" {
						if bl, ok := c.Args[0].(*ast.BasicLit); ok {
							out = append(out, strings.Trim(bl.Value, `"`))
						}
					}
				}
				return true
			})
		}
		return out
	}

	spec := FlowSpec[map[string]bool]{
		Entry:  map[string]bool{},
		Bottom: func() map[string]bool { return map[string]bool{} },
		Clone: func(f map[string]bool) map[string]bool {
			c := make(map[string]bool, len(f))
			for k := range f {
				c[k] = true
			}
			return c
		},
		Join: func(dst, src map[string]bool) map[string]bool {
			for k := range src {
				dst[k] = true
			}
			return dst
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
		Transfer: func(b *Block, in map[string]bool) map[string]bool {
			for _, s := range lits(b) {
				in[s] = true
			}
			return in
		},
	}
	facts := ForwardSolve(g, spec)

	atExit := facts.In[g.Exit]
	// "a" always executes; "b" reaches exit via the panic edge; "c" may
	// have executed through the loop; "d" reaches exit on the normal path.
	for _, want := range []string{"a", "b", "c", "d"} {
		if !atExit[want] {
			t.Errorf("fact %q missing at exit: %v", want, atExit)
		}
	}

	// At the loop head, "d" has not executed yet.
	head := blockByDesc(t, g, "for.head")
	if facts.In[head]["d"] {
		t.Error(`"d" reported as reaching the loop head`)
	}
	if !facts.In[head]["a"] {
		t.Error(`"a" missing at the loop head`)
	}
}

func TestBlockContaining(t *testing.T) {
	g := buildCFG(t, `
	x := 1
	if x > 0 {
		x = 2
	}`)
	then := blockByDesc(t, g, "if.then")
	if len(then.Nodes) != 1 {
		t.Fatalf("then block has %d nodes, want 1", len(then.Nodes))
	}
	pos := then.Nodes[0].Pos()
	if got := g.BlockContaining(pos); got != then {
		t.Errorf("BlockContaining(%v) = %v, want %v", pos, got, then)
	}
}
