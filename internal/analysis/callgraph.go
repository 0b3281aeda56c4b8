// Static call graph over go/types, the backbone of the interprocedural
// analyzers.
//
// Construction rules (documented in DESIGN.md):
//
//   - Direct calls to declared functions and methods become EdgeCall edges
//     (generic instantiations are collapsed onto their origin declaration).
//   - An immediately-invoked function literal is an EdgeCall to the
//     literal's own node; any other mention of a literal or a declared
//     function — a method value stored in a variable, a closure passed as
//     an engine.Map task — becomes an EdgeRef edge: the target may run
//     whenever the value is eventually invoked, so reachability analyses
//     must traverse it, while summary composition (which needs the call's
//     argument binding) must not.
//   - A call through an interface becomes EdgeDispatch edges to the
//     matching method of every named type in the program whose method set
//     implements the interface (conservative: every implementation may be
//     the dynamic callee).
//
// Soundness caveats: calls through plain function-typed variables are not
// resolved (the ref edge at the point the function value escaped covers
// reachability but not argument binding), and dynamic dispatch to types
// outside the loaded program is invisible.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// EdgeKind classifies one call-graph edge.
type EdgeKind int

const (
	// EdgeCall is a direct static call.
	EdgeCall EdgeKind = iota
	// EdgeDispatch is a conservative interface-dispatch candidate.
	EdgeDispatch
	// EdgeRef records a function value escaping (method value, closure or
	// function passed/stored rather than called).
	EdgeRef
)

// Edge is one directed call-graph edge.
type Edge struct {
	Caller, Callee *FuncInfo
	Kind           EdgeKind
	Pos            token.Pos
}

// CallGraph is the static call graph of a Program.
type CallGraph struct {
	Prog *Program
	// Nodes is every function body, in the program's deterministic order.
	Nodes []*FuncInfo
	// Out and In hold the edges by caller and by callee, deduplicated per
	// (caller, callee, kind), in discovery (source) order.
	Out map[*FuncInfo][]Edge
	In  map[*FuncInfo][]Edge

	implCache map[implKey][]*FuncInfo
}

type implKey struct {
	iface  *types.Interface
	method string
}

// CallGraph builds (and caches) the program's call graph.
func (prog *Program) CallGraph() *CallGraph {
	if prog.graph != nil {
		return prog.graph
	}
	g := &CallGraph{
		Prog:      prog,
		Nodes:     prog.Funcs(),
		Out:       map[*FuncInfo][]Edge{},
		In:        map[*FuncInfo][]Edge{},
		implCache: map[implKey][]*FuncInfo{},
	}
	type dedupKey struct {
		caller, callee *FuncInfo
		kind           EdgeKind
	}
	seen := map[dedupKey]bool{}
	add := func(e Edge) {
		k := dedupKey{e.Caller, e.Callee, e.Kind}
		if e.Callee == nil || seen[k] {
			return
		}
		seen[k] = true
		g.Out[e.Caller] = append(g.Out[e.Caller], e)
		g.In[e.Callee] = append(g.In[e.Callee], e)
	}
	for _, fn := range g.Nodes {
		g.edgesFrom(fn, add)
	}
	prog.graph = g
	return g
}

// edgesFrom walks one function body (excluding nested literal bodies, which
// are their own nodes) and emits its outgoing edges.
func (g *CallGraph) edgesFrom(fn *FuncInfo, add func(Edge)) {
	body := fn.Body()
	info := fn.Pkg.Info

	// First pass: note which expressions are the operator of a call, so the
	// second pass can tell a call from an escaping reference.
	called := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			called[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	kindOf := func(e ast.Expr) EdgeKind {
		if called[e] {
			return EdgeCall
		}
		return EdgeRef
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			add(Edge{Caller: fn, Callee: g.Prog.LitOf(x), Kind: kindOf(x), Pos: x.Pos()})
			return false
		case *ast.SelectorExpr:
			g.selectorEdges(fn, x, kindOf(x), add)
			// The base expression can itself contain calls: f().M, a[i].M.
			ast.Inspect(x.X, func(m ast.Node) bool { return walk(m) })
			return false
		case *ast.Ident:
			if tf, ok := info.Uses[x].(*types.Func); ok {
				add(Edge{Caller: fn, Callee: g.Prog.FuncOf(tf), Kind: kindOf(x), Pos: x.Pos()})
			}
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool { return walk(n) })
}

// selectorEdges resolves a selector mentioning a function: a method
// call/value (possibly through an interface) or a package-qualified
// function.
func (g *CallGraph) selectorEdges(fn *FuncInfo, sel *ast.SelectorExpr, kind EdgeKind, add func(Edge)) {
	info := fn.Pkg.Info
	if s, ok := info.Selections[sel]; ok {
		if s.Kind() != types.MethodVal && s.Kind() != types.MethodExpr {
			return // field access
		}
		callee, _ := s.Obj().(*types.Func)
		if callee == nil {
			return
		}
		if s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			dk := EdgeDispatch
			if kind == EdgeRef {
				dk = EdgeRef
			}
			for _, t := range g.implementers(s.Recv().Underlying().(*types.Interface), callee.Name()) {
				add(Edge{Caller: fn, Callee: t, Kind: dk, Pos: sel.Pos()})
			}
			return
		}
		add(Edge{Caller: fn, Callee: g.Prog.FuncOf(callee), Kind: kind, Pos: sel.Pos()})
		return
	}
	if tf, ok := info.Uses[sel.Sel].(*types.Func); ok {
		add(Edge{Caller: fn, Callee: g.Prog.FuncOf(tf), Kind: kind, Pos: sel.Pos()})
	}
}

// implementers returns the program functions implementing the named method
// of iface: for every package-scope named type T (and *T) whose method set
// satisfies the interface, the method with a body. Memoized per
// (interface, method).
func (g *CallGraph) implementers(iface *types.Interface, method string) []*FuncInfo {
	key := implKey{iface, method}
	if out, ok := g.implCache[key]; ok {
		return out
	}
	var out []*FuncInfo
	seen := map[*FuncInfo]bool{}
	for _, p := range g.Prog.Packages {
		scope := p.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			T := tn.Type()
			if types.IsInterface(T) {
				continue
			}
			for _, recv := range []types.Type{T, types.NewPointer(T)} {
				if !types.Implements(recv, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(recv, true, tn.Pkg(), method)
				if m, ok := obj.(*types.Func); ok {
					if fi := g.Prog.FuncOf(m); fi != nil && !seen[fi] {
						seen[fi] = true
						out = append(out, fi)
					}
				}
			}
		}
	}
	g.implCache[key] = out
	return out
}

// CalleesAt resolves one call expression inside fn to its possible
// program-internal callees (one for a static call, several for an
// interface dispatch, the literal for an immediately-invoked closure).
// Empty means the callee is external or dynamic.
func (g *CallGraph) CalleesAt(fn *FuncInfo, call *ast.CallExpr) []*FuncInfo {
	info := fn.Pkg.Info
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if li := g.Prog.LitOf(f); li != nil {
			return []*FuncInfo{li}
		}
	case *ast.Ident:
		if tf, ok := info.Uses[f].(*types.Func); ok {
			if fi := g.Prog.FuncOf(tf); fi != nil {
				return []*FuncInfo{fi}
			}
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[f]; ok {
			if callee, _ := s.Obj().(*types.Func); callee != nil {
				if s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
					return g.implementers(s.Recv().Underlying().(*types.Interface), callee.Name())
				}
				if fi := g.Prog.FuncOf(callee); fi != nil {
					return []*FuncInfo{fi}
				}
			}
			return nil
		}
		if tf, ok := info.Uses[f.Sel].(*types.Func); ok {
			if fi := g.Prog.FuncOf(tf); fi != nil {
				return []*FuncInfo{fi}
			}
		}
	}
	return nil
}

// callEdge reports whether kind participates in summary composition and
// SCC grouping (ref edges do not: they carry no argument binding).
func callEdge(k EdgeKind) bool { return k == EdgeCall || k == EdgeDispatch }

// SCCs returns the strongly connected components over call and dispatch
// edges in reverse topological order: every callee SCC precedes its
// callers, the order bottom-up summary solvers need. Tarjan's algorithm,
// iterative, deterministic given the program's node order.
func (g *CallGraph) SCCs() [][]*FuncInfo {
	index := map[*FuncInfo]int{}
	low := map[*FuncInfo]int{}
	onStack := map[*FuncInfo]bool{}
	var stack []*FuncInfo
	var sccs [][]*FuncInfo
	next := 0

	type frame struct {
		fn *FuncInfo
		ei int
	}
	for _, root := range g.Nodes {
		if _, ok := index[root]; ok {
			continue
		}
		work := []frame{{fn: root}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			fn := f.fn
			if f.ei == 0 {
				index[fn] = next
				low[fn] = next
				next++
				stack = append(stack, fn)
				onStack[fn] = true
			}
			advanced := false
			edges := g.Out[fn]
			for f.ei < len(edges) {
				e := edges[f.ei]
				f.ei++
				if !callEdge(e.Kind) {
					continue
				}
				w := e.Callee
				if _, ok := index[w]; !ok {
					work = append(work, frame{fn: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[fn] {
					low[fn] = index[w]
				}
			}
			if advanced {
				continue
			}
			// fn is done: pop, fold lowlink into parent, close SCC at root.
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].fn
				if low[fn] < low[p] {
					low[p] = low[fn]
				}
			}
			if low[fn] == index[fn] {
				var scc []*FuncInfo
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == fn {
						break
					}
				}
				// Stable member order for deterministic iteration.
				sort.Slice(scc, func(i, j int) bool { return scc[i].Pos() < scc[j].Pos() })
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

// Reachable returns every node reachable from the roots over the given
// edge kinds (all kinds when none given), mapped to the minimal edge depth
// from a root. Roots map to depth 0.
func (g *CallGraph) Reachable(roots []*FuncInfo, kinds ...EdgeKind) map[*FuncInfo]int {
	want := func(k EdgeKind) bool {
		if len(kinds) == 0 {
			return true
		}
		for _, w := range kinds {
			if w == k {
				return true
			}
		}
		return false
	}
	depth := map[*FuncInfo]int{}
	var queue []*FuncInfo
	for _, r := range roots {
		if _, ok := depth[r]; !ok && r != nil {
			depth[r] = 0
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range g.Out[fn] {
			if !want(e.Kind) {
				continue
			}
			if _, ok := depth[e.Callee]; !ok {
				depth[e.Callee] = depth[fn] + 1
				queue = append(queue, e.Callee)
			}
		}
	}
	return depth
}
