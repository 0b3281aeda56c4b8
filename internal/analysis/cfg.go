// Intra-procedural control-flow graphs over go/ast function bodies.
//
// The syntactic analyzers of this package catch single-statement hazards;
// the remaining bug classes that threaten the simulator's determinism are
// flow-shaped (a lock released on some paths only, an allocation repeated
// per loop iteration, map-iteration order leaking into a report). Those
// need a CFG. NewCFG builds one per function from pure syntax — no type
// information — so it is cheap, and the dataflow layer (dataflow.go) runs
// client transfer functions over it to a fixpoint.
//
// Shape of the graph:
//
//   - Blocks[0] is Entry, Blocks[1] is Exit. Every return, every call to a
//     terminating function (panic, os.Exit, log.Fatal*, runtime.Goexit) and
//     the fall-off-the-end of the body edge into Exit, so "every path to
//     function exit" is exactly "every path from Entry to Exit".
//   - A Block's Nodes are atomic units in execution order: simple
//     statements, plus the controlling expressions of compound statements
//     (an if condition, a range operand, a switch tag). Compound statement
//     bodies live in their own blocks, so walking a block's Nodes never
//     revisits a nested statement.
//   - Function literals are opaque: a FuncLit appearing in an expression is
//     part of that expression's node, and its body gets its own CFG via
//     ForEachFunc. Control flow never crosses a function boundary.
//   - defer is an ordinary node (its arguments are evaluated in sequence);
//     clients that care where the deferred call runs (lockflow) handle the
//     DeferStmt themselves.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// Block is one straight-line run of nodes with no internal control
// transfer.
type Block struct {
	Index int
	// Desc names the block's role ("entry", "if.then", "for.head", ...)
	// for tests and debugging.
	Desc string
	// Nodes are the block's atomic units in execution order: simple
	// statements and controlling expressions of compound statements.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

func (b *Block) String() string { return fmt.Sprintf("b%d(%s)", b.Index, b.Desc) }

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block

	blockOf map[ast.Node]*Block
}

// BlockOf returns the block holding n, where n is a node the builder
// registered (a simple statement, a compound statement's header, or a
// controlling expression). Returns nil for nodes nested inside another
// block node.
func (g *CFG) BlockOf(n ast.Node) *Block { return g.blockOf[n] }

// BlockContaining returns the block owning the node whose source span
// covers pos, or nil. It resolves positions of expressions nested inside a
// block's atomic nodes.
func (g *CFG) BlockContaining(pos token.Pos) *Block {
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Pos() <= pos && pos < n.End() {
				return b
			}
		}
	}
	return nil
}

// ReachableFrom returns the set of blocks reachable from b, including b
// itself.
func (g *CFG) ReachableFrom(b *Block) map[*Block]bool {
	seen := map[*Block]bool{}
	var dfs func(*Block)
	dfs = func(x *Block) {
		if seen[x] {
			return
		}
		seen[x] = true
		for _, s := range x.Succs {
			dfs(s)
		}
	}
	dfs(b)
	return seen
}

// InLoop reports whether b lies on a cycle: whether b is reachable from one
// of its own successors. An allocation in such a block executes an
// unbounded number of times.
func (g *CFG) InLoop(b *Block) bool {
	for _, s := range b.Succs {
		if g.ReachableFrom(s)[b] {
			return true
		}
	}
	return false
}

// NewCFG builds the control-flow graph of fn, which must be an
// *ast.FuncDecl or *ast.FuncLit. A declaration without a body (external
// linkage) yields the minimal entry→exit graph.
func NewCFG(fn ast.Node) *CFG {
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	default:
		panic(fmt.Sprintf("analysis: NewCFG on %T, want *ast.FuncDecl or *ast.FuncLit", fn))
	}
	b := &cfgBuilder{
		g:      &CFG{blockOf: map[ast.Node]*Block{}},
		labels: map[string]*labelInfo{},
	}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(b.g.Exit) // fall off the end
	b.wirePreds()
	return b.g
}

// ForEachFunc visits every function with a body in file — declarations and
// literals, in source order — and hands each to visit along with its CFG.
// Literals nested inside another function are visited separately; their
// statements belong only to their own graph.
func ForEachFunc(file *ast.File, visit func(fn ast.Node, body *ast.BlockStmt, g *CFG)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch f := n.(type) {
		case *ast.FuncDecl:
			if f.Body != nil {
				visit(f, f.Body, NewCFG(f))
			}
		case *ast.FuncLit:
			visit(f, f.Body, NewCFG(f))
		}
		return true
	})
}

// labelInfo tracks one label: its goto-target block (created on first
// reference, forward or backward) and, while its labeled statement is being
// built, the break/continue targets.
type labelInfo struct {
	target     *Block // start of the labeled statement
	breakTo    *Block
	continueTo *Block
}

// frame is one enclosing breakable construct (loop, switch, select) for
// resolving unlabeled break/continue.
type frame struct {
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type cfgBuilder struct {
	g      *CFG
	cur    *Block // nil while the current path is terminated
	labels map[string]*labelInfo
	frames []frame
	// pendingLabel carries a label down to the loop/switch statement it
	// annotates, so labeled break/continue resolve to that construct.
	pendingLabel *labelInfo
}

func (b *cfgBuilder) newBlock(desc string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Desc: desc}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge adds from→to.
func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// jump terminates the current path into to (no-op when already
// terminated; a nil target — e.g. a labeled break whose label annotates a
// non-loop statement — just terminates the path).
func (b *cfgBuilder) jump(to *Block) {
	if b.cur != nil && to != nil {
		b.edge(b.cur, to)
	}
	b.cur = nil
}

// startBlock makes blk current, assuming the previous path was terminated
// or should fall through into it.
func (b *cfgBuilder) startBlock(blk *Block) {
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
}

// add appends an atomic node to the current block, creating an unreachable
// block when the path was terminated (code after return/panic still gets a
// home so BlockOf works; it simply has no predecessors).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
	b.g.blockOf[n] = b.cur
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// labelFor returns (creating if needed) the info for a label name.
func (b *cfgBuilder) labelFor(name string) *labelInfo {
	li, ok := b.labels[name]
	if !ok {
		li = &labelInfo{target: b.newBlock("label." + name)}
		b.labels[name] = li
	}
	return li
}

// pushFrame registers a breakable construct, attaching any pending label.
func (b *cfgBuilder) pushFrame(breakTo, continueTo *Block) {
	b.frames = append(b.frames, frame{breakTo: breakTo, continueTo: continueTo})
	if b.pendingLabel != nil {
		b.pendingLabel.breakTo = breakTo
		b.pendingLabel.continueTo = continueTo
		b.pendingLabel = nil
	}
}

func (b *cfgBuilder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

// stmt threads one statement through the graph.
func (b *cfgBuilder) stmt(s ast.Stmt) {
	// Any statement other than the one a label annotates clears the
	// pending label.
	if _, ok := s.(*ast.LabeledStmt); !ok {
		defer func() { b.pendingLabel = nil }()
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		li := b.labelFor(s.Label.Name)
		b.startBlock(li.target)
		b.pendingLabel = li
		b.stmt(s.Stmt)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isTerminatingCall(call) {
			b.jump(b.g.Exit)
		}

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s)

	case *ast.RangeStmt:
		b.rangeStmt(s)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s, s.Body, false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s, s.Body, false)

	case *ast.SelectStmt:
		b.switchBody(s, s.Body, true)

	default:
		// AssignStmt, DeclStmt, DeferStmt, GoStmt, IncDecStmt, SendStmt,
		// EmptyStmt.
		b.add(s)
	}
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.GOTO:
		b.jump(b.labelFor(s.Label.Name).target)
	case token.BREAK:
		if s.Label != nil {
			b.jump(b.labelFor(s.Label.Name).breakTo)
			return
		}
		if n := len(b.frames); n > 0 {
			b.jump(b.frames[n-1].breakTo)
			return
		}
		b.cur = nil // stray break: terminate defensively
	case token.CONTINUE:
		if s.Label != nil {
			b.jump(b.labelFor(s.Label.Name).continueTo)
			return
		}
		for i := len(b.frames) - 1; i >= 0; i-- {
			if b.frames[i].continueTo != nil {
				b.jump(b.frames[i].continueTo)
				return
			}
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled by switchBody via clause ordering; the node is recorded,
		// and the fall-through edge is added there.
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	b.g.blockOf[s] = b.cur
	cond := b.cur
	after := b.newBlock("if.after")

	then := b.newBlock("if.then")
	b.edge(cond, then)
	b.cur = then
	b.stmtList(s.Body.List)
	b.jump(after)

	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		b.jump(after)
	} else {
		b.edge(cond, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.startBlock(head)
	if s.Cond != nil {
		b.add(s.Cond)
	}
	b.g.blockOf[s] = head
	after := b.newBlock("for.after")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}

	body := b.newBlock("for.body")
	b.edge(head, body)
	if s.Cond != nil {
		// A conditional loop may be skipped entirely.
		b.edge(head, after)
	}
	b.pushFrame(after, post)
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(post)
	b.popFrame()

	if s.Post != nil {
		b.cur = post
		b.stmt(s.Post)
		b.jump(head)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	head := b.newBlock("range.head")
	b.startBlock(head)
	b.add(s.X)
	b.g.blockOf[s] = head
	after := b.newBlock("range.after")
	body := b.newBlock("range.body")
	b.edge(head, body)
	b.edge(head, after) // empty collection

	b.pushFrame(after, head)
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(head)
	b.popFrame()
	b.cur = after
}

// switchBody builds the clause blocks of a switch, type switch or select.
// For switches, a missing default adds a head→after edge and fallthrough
// chains a case body into the next clause's body.
func (b *cfgBuilder) switchBody(owner ast.Stmt, body *ast.BlockStmt, isSelect bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock("switch.head")
		b.cur = head
	}
	b.g.blockOf[owner] = head
	after := b.newBlock("switch.after")
	b.pushFrame(after, nil)

	type clause struct {
		blk   *Block
		stmts []ast.Stmt
		hasFT bool // body ends in fallthrough
	}
	var clauses []clause
	hasDefault := false
	for _, cs := range body.List {
		var list []ast.Stmt
		var exprs []ast.Expr
		switch c := cs.(type) {
		case *ast.CaseClause:
			list, exprs = c.Body, c.List
			if c.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			list = c.Body
			if c.Comm == nil {
				hasDefault = true
			} else {
				list = append([]ast.Stmt{c.Comm}, list...)
			}
		}
		blk := b.newBlock("case")
		b.edge(head, blk)
		// Case guard expressions are evaluated against the tag in the
		// clause's block.
		b.cur = blk
		for _, e := range exprs {
			b.add(e)
		}
		ft := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				ft = true
			}
		}
		clauses = append(clauses, clause{blk: blk, stmts: list, hasFT: ft})
		b.cur = nil
	}
	if !hasDefault && !isSelect {
		// No case matched: execution continues after the switch. A select
		// without default blocks until some case is runnable, so it gets no
		// such edge.
		b.edge(head, after)
	}

	for i, c := range clauses {
		b.cur = c.blk
		b.stmtList(c.stmts)
		if c.hasFT && i+1 < len(clauses) {
			b.jump(clauses[i+1].blk)
		} else {
			b.jump(after)
		}
	}
	b.popFrame()
	b.cur = after
}

// isTerminatingCall reports whether a call never returns, syntactically:
// the builtin panic, os.Exit, runtime.Goexit, and the log.Fatal family.
// Shadowed names are misdetected; acceptable for lint precision.
func isTerminatingCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fun.Sel.Name == "Exit":
			return true
		case pkg.Name == "runtime" && fun.Sel.Name == "Goexit":
			return true
		case pkg.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln" ||
			fun.Sel.Name == "Panic" || fun.Sel.Name == "Panicf" || fun.Sel.Name == "Panicln"):
			return true
		}
	}
	return false
}

// wirePreds fills in predecessor lists (and dedupes duplicate edges) once
// construction is done.
func (b *cfgBuilder) wirePreds() {
	for _, blk := range b.g.Blocks {
		seen := map[*Block]bool{}
		uniq := blk.Succs[:0]
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				uniq = append(uniq, s)
			}
		}
		blk.Succs = uniq
	}
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
}
