// lockflow: every mutex acquisition must be released on every path out of
// the function that holds it — return, panic, or falling off the end —
// whether the Lock call appears in the function's own body or is hidden
// behind a helper. A caller of
//
//	func (s *store) lockIt() { s.mu.Lock() }
//
// holds s.mu without any Lock call appearing in its own body. lockflow
// sees it through lock-effect summaries: each function is summarized by
// the set of parameter-rooted locks it net-acquires (still held at exit)
// and net-releases (released without acquiring). At a call site the
// summary is rewritten into the caller's expression space — the callee's
// "recv.mu/w" becomes "s.mu/w" for the call s.lockIt() — and composed into
// one may-be-held dataflow with the function's direct Lock/Unlock calls.
// A lock still held at exit on some path (not released directly, through
// a releasing helper, or via defer of either) is reported once, at its
// earliest acquisition: the Lock call or the acquiring call site.
//
// Approximations (see DESIGN.md): effects are tracked only for locks
// rooted at a parameter or receiver of the callee; interface dispatch with
// multiple possible targets contributes acquisitions (may-analysis) but
// not releases (a release must be certain to cancel a hold); a helper
// that releases only on some of its paths is treated as releasing.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockFlow is the lock-balance rule. On the simulator's hot paths an
// unlock skipped on an error return deadlocks the sweep cache or the
// worker pool on the next acquisition.
var LockFlow = &Analyzer{
	Name:       "lockflow",
	Doc:        "every mu.Lock()/RLock(), direct or through a callee (helper lock methods, any depth), must be released on all paths to return/panic",
	RunProgram: runLockFlow,
}

// lockOp classifies one sync lock/unlock call site.
type lockOp struct {
	key     string // receiver expression + mode, e.g. "mu/w", "c.mu/r"
	acquire bool
	pos     token.Pos
}

// syncLockOp resolves a call expression to a lock operation on a
// sync.Mutex, sync.RWMutex or sync.Locker receiver (including promoted
// methods of embedded mutexes). TryLock variants are ignored: their result
// is conditional, so balance cannot be judged from the call alone.
func syncLockOp(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	var mode string
	var acquire bool
	switch fn.Name() {
	case "Lock":
		mode, acquire = "w", true
	case "Unlock":
		mode, acquire = "w", false
	case "RLock":
		mode, acquire = "r", true
	case "RUnlock":
		mode, acquire = "r", false
	default:
		return lockOp{}, false
	}
	return lockOp{key: types.ExprString(sel.X) + "/" + mode, acquire: acquire, pos: call.Pos()}, true
}

// lockParamKey names a lock rooted at a callee parameter: param is the
// index in receiver-then-parameters order, suffix the field path plus mode
// ("" + "/w" when the parameter is the mutex, ".mu/w" for a field).
type lockParamKey struct {
	param  int
	suffix string
}

// lockSummary is one function's lock effect.
type lockSummary struct {
	arity    int
	acquires map[lockParamKey]bool // held at exit on some path
	releases map[lockParamKey]bool // released without acquiring, on some path
}

func newLockSummary(arity int) *lockSummary {
	return &lockSummary{arity: arity, acquires: map[lockParamKey]bool{}, releases: map[lockParamKey]bool{}}
}

func lockSummaryEqual(a, b *lockSummary) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.arity != b.arity || len(a.acquires) != len(b.acquires) || len(a.releases) != len(b.releases) {
		return false
	}
	for k := range a.acquires {
		if !b.acquires[k] {
			return false
		}
	}
	for k := range a.releases {
		if !b.releases[k] {
			return false
		}
	}
	return true
}

func (s *lockSummary) empty() bool {
	return s == nil || (len(s.acquires) == 0 && len(s.releases) == 0)
}

// lfEnt is one held lock in the dataflow fact.
type lfEnt struct {
	pos     token.Pos    // acquiring call position
	via     string       // callee name for call-derived holds, "" for direct
	pk      lockParamKey // caller-parameter rooting, valid when isParam
	isParam bool
}

type lfFact map[string]lfEnt

// runLockFlow solves every function's lock-effect summary to a fixpoint,
// then re-runs each function against the solved summaries, reporting the
// holds that survive to exit.
func runLockFlow(prog *Program) {
	lf := &lockFlowState{prog: prog, graph: prog.CallGraph()}
	solver := &SummarySolver[*lockSummary]{
		Graph:  lf.graph,
		Bottom: func() *lockSummary { return nil },
		Equal:  lockSummaryEqual,
		Compute: func(fn *FuncInfo, get func(*FuncInfo) *lockSummary) *lockSummary {
			return lf.analyze(fn, get, false)
		},
	}
	sums := solver.Solve()
	for _, fn := range prog.Funcs() {
		lf.analyze(fn, func(f *FuncInfo) *lockSummary { return sums[f] }, true)
	}
}

type lockFlowState struct {
	prog  *Program
	graph *CallGraph
}

// analyze runs the interprocedural may-be-held solve over one function,
// returning its lock summary and (when report is set) reporting holds that
// survive to exit.
func (lf *lockFlowState) analyze(fn *FuncInfo, get func(*FuncInfo) *lockSummary, report bool) *lockSummary {
	params := sigParams(fn)
	sum := newLockSummary(len(params))
	info := fn.Pkg.Info

	// Fast path: no sync ops and no calls with lock effects → empty summary.
	if !lf.hasLockActivity(fn, get) {
		return sum
	}

	g := fn.CFG()
	transfer := func(b *Block, in lfFact) lfFact {
		for _, n := range b.Nodes {
			if d, ok := n.(*ast.DeferStmt); ok {
				lf.applyDefer(fn, info, d, in, get)
				continue
			}
			lf.scanCalls(fn, info, n, in, get, sum, params)
		}
		return in
	}

	facts := ForwardSolve(g, FlowSpec[lfFact]{
		Entry:  lfFact{},
		Bottom: func() lfFact { return lfFact{} },
		Clone: func(f lfFact) lfFact {
			c := make(lfFact, len(f))
			for k, v := range f {
				c[k] = v
			}
			return c
		},
		Join: func(dst, src lfFact) lfFact {
			for k, v := range src {
				if old, ok := dst[k]; !ok || v.pos < old.pos {
					dst[k] = v
				}
			}
			return dst
		},
		Equal: func(a, b lfFact) bool {
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if w, ok := b[k]; !ok || w != v {
					return false
				}
			}
			return true
		},
		Transfer: transfer,
	})

	held := facts.In[g.Exit]
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ent := held[k]
		if ent.isParam {
			sum.acquires[ent.pk] = true
		}
		if !report {
			continue
		}
		expr := k[:len(k)-2] // strip "/w" or "/r"
		if ent.via == "" {
			lf.prog.Reportf(ent.pos, "lockflow",
				"%s is locked here but not released on every path to return/panic; unlock on all paths or defer the unlock", expr)
		} else {
			lf.prog.Reportf(ent.pos, "lockflow",
				"%s is acquired here through call to %s but not released on every path to return/panic; unlock on all paths or defer the release",
				expr, shortFuncName(ent.via))
		}
	}
	return sum
}

// sigParams returns the receiver (if any) followed by the parameters — the
// index space lock summaries use.
func sigParams(fn *FuncInfo) []*types.Var {
	sig := fn.Type()
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// shortFuncName trims the module-path noise off a FuncInfo name for
// messages.
func shortFuncName(name string) string {
	return name[strings.LastIndexByte(name, '/')+1:]
}

// hasLockActivity is the cheap pre-scan: does the body contain a sync lock
// op or a call to a function with a non-empty lock summary?
func (lf *lockFlowState) hasLockActivity(fn *FuncInfo, get func(*FuncInfo) *lockSummary) bool {
	info := fn.Pkg.Info
	found := false
	ast.Inspect(fn.Body(), func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := syncLockOp(info, call); ok {
			found = true
			return false
		}
		for _, t := range lf.graph.CalleesAt(fn, call) {
			if !get(t).empty() {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// scanCalls applies the lock effects of every call under n, in source
// order, to the held set, recording param-rooted net releases into sum.
func (lf *lockFlowState) scanCalls(fn *FuncInfo, info *types.Info, n ast.Node, in lfFact, get func(*FuncInfo) *lockSummary, sum *lockSummary, params []*types.Var) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false // literals are their own call-graph nodes
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := syncLockOp(info, call); ok {
			sel := call.Fun.(*ast.SelectorExpr)
			pk, isParam := lockParamRoot(info, params, sel.X, op.key)
			if op.acquire {
				if _, held := in[op.key]; !held {
					in[op.key] = lfEnt{pos: op.pos, pk: pk, isParam: isParam}
				}
			} else {
				if _, held := in[op.key]; !held && isParam {
					sum.releases[pk] = true
				}
				delete(in, op.key)
			}
			return true
		}
		lf.applyCallSummary(fn, info, call, in, get, sum, params, false)
		return true
	})
}

// applyCallSummary rewrites one callee's lock effects into the caller's
// expression space and applies them. With releasesOnly set (deferred
// calls) acquisitions are ignored.
func (lf *lockFlowState) applyCallSummary(fn *FuncInfo, info *types.Info, call *ast.CallExpr, in lfFact, get func(*FuncInfo) *lockSummary, sum *lockSummary, params []*types.Var, releasesOnly bool) {
	targets := lf.graph.CalleesAt(fn, call)
	if len(targets) == 0 {
		return
	}
	// Releases must be certain to cancel a hold: only a uniquely-resolved
	// callee's releases apply. Acquisitions are may-facts: any target's
	// acquisition counts.
	applyReleases := len(targets) == 1
	for _, t := range targets {
		su := get(t)
		if su.empty() {
			continue
		}
		for _, pk := range sortedLockKeys(su.releases) {
			if !applyReleases {
				break
			}
			key, root, ok := rewriteLockKey(info, t, call, pk)
			if !ok {
				continue
			}
			if _, held := in[key]; !held {
				if cpk, isParam := callerParamKey(info, params, root, key); isParam {
					sum.releases[cpk] = true
				}
			}
			delete(in, key)
		}
		if releasesOnly {
			continue
		}
		for _, pk := range sortedLockKeys(su.acquires) {
			key, root, ok := rewriteLockKey(info, t, call, pk)
			if !ok {
				continue
			}
			if _, held := in[key]; held {
				continue
			}
			cpk, isParam := callerParamKey(info, params, root, key)
			in[key] = lfEnt{pos: call.Pos(), via: t.Name, pk: cpk, isParam: isParam}
		}
	}
}

// applyDefer cancels holds released by a deferred call: a direct deferred
// unlock, a deferred releasing helper, or a deferred literal containing
// either.
func (lf *lockFlowState) applyDefer(fn *FuncInfo, info *types.Info, d *ast.DeferStmt, in lfFact, get func(*FuncInfo) *lockSummary) {
	release := func(call *ast.CallExpr) {
		if op, ok := syncLockOp(info, call); ok {
			if !op.acquire {
				delete(in, op.key)
			}
			return
		}
		targets := lf.graph.CalleesAt(fn, call)
		if len(targets) != 1 {
			return
		}
		su := get(targets[0])
		if su.empty() {
			return
		}
		for _, pk := range sortedLockKeys(su.releases) {
			if key, _, ok := rewriteLockKey(info, targets[0], call, pk); ok {
				delete(in, key)
			}
		}
	}
	release(d.Call)
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				release(call)
			}
			return true
		})
	}
}

// sortedLockKeys returns a summary's keys in deterministic order.
func sortedLockKeys(m map[lockParamKey]bool) []lockParamKey {
	out := make([]lockParamKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].param != out[j].param {
			return out[i].param < out[j].param
		}
		return out[i].suffix < out[j].suffix
	})
	return out
}

// rewriteLockKey maps a callee's parameter-rooted lock key to the caller's
// expression space at one call site, returning the caller-side key and the
// caller argument expression the key is rooted at.
func rewriteLockKey(info *types.Info, target *FuncInfo, call *ast.CallExpr, pk lockParamKey) (string, ast.Expr, bool) {
	args := callerArgs(info, target, call)
	if pk.param < 0 || pk.param >= len(args) || args[pk.param] == nil {
		return "", nil, false
	}
	arg := ast.Unparen(args[pk.param])
	// Strip an explicit & — "&s.st" passed as *store roots the same lock
	// expression as "s.st".
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = ast.Unparen(u.X)
	}
	return types.ExprString(arg) + pk.suffix, arg, true
}

// callerArgs aligns the call's argument expressions to the callee's
// receiver-then-parameters index space.
func callerArgs(info *types.Info, target *FuncInfo, call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if target.Type().Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				out = append(out, sel.X)
			}
		}
		if len(out) == 0 {
			// Method expression T.M(recv, ...): receiver is args[0] already.
			if len(call.Args) > 0 {
				out = append(out, call.Args[0])
				out = append(out, call.Args[1:]...)
				return out
			}
			return nil
		}
	}
	out = append(out, call.Args...)
	return out
}

// lockParamRoot maps a direct lock op's receiver expression to a
// parameter-rooted key when its base identifier is a parameter or
// receiver.
func lockParamRoot(info *types.Info, params []*types.Var, recvExpr ast.Expr, key string) (lockParamKey, bool) {
	root := leftmostIdent(recvExpr)
	if root == nil {
		return lockParamKey{}, false
	}
	obj := objOf(info, root)
	if obj == nil {
		return lockParamKey{}, false
	}
	for i, p := range params {
		if p == obj {
			if !strings.HasPrefix(key, root.Name) {
				return lockParamKey{}, false
			}
			return lockParamKey{param: i, suffix: strings.TrimPrefix(key, root.Name)}, true
		}
	}
	return lockParamKey{}, false
}

// callerParamKey maps a caller-side lock key rooted at expression root to
// the caller's own parameter space, for transitive summaries.
func callerParamKey(info *types.Info, params []*types.Var, root ast.Expr, key string) (lockParamKey, bool) {
	if root == nil {
		return lockParamKey{}, false
	}
	return lockParamRoot(info, params, root, key)
}

// leftmostIdent returns the base identifier of a selector/index/deref
// chain, nil when the base is not an identifier.
func leftmostIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
