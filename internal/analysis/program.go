// The whole-program view behind the interprocedural analyzers.
//
// A Program aggregates every package of one load (the packages requested
// for analysis plus their transitive module-internal dependencies) and
// indexes all function bodies — declarations and function literals — as
// FuncInfo nodes. The call graph (callgraph.go) and the summary solver
// (summaries.go) operate on these nodes; analyzers report through
// Program.Reportf, which scopes findings to the analyzed packages and
// deduplicates the repeats that naturally fall out of fixpoint iteration.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FuncInfo is one function body in the program: a declared function or
// method (Decl/Obj set) or a function literal (Lit/Encl set).
type FuncInfo struct {
	// Pkg is the package holding the body.
	Pkg *Package
	// Decl is the declaration, nil for literals.
	Decl *ast.FuncDecl
	// Obj is the type-checker object of a declared function, nil for
	// literals.
	Obj *types.Func
	// Lit is the literal, nil for declarations.
	Lit *ast.FuncLit
	// Encl is the function enclosing a literal (nil for declarations and
	// for literals in package-scope initializers).
	Encl *FuncInfo
	// Name is a stable printable identifier: the type-checker's FullName
	// for declarations ("mct/internal/sim.Prepare",
	// "(*mct/internal/nvm.Controller).Read"), the enclosing name plus
	// "$<n>" for literals.
	Name string

	cfg *CFG
}

// Body returns the function's body block.
func (f *FuncInfo) Body() *ast.BlockStmt {
	if f.Decl != nil {
		return f.Decl.Body
	}
	return f.Lit.Body
}

// Node returns the declaration or literal node.
func (f *FuncInfo) Node() ast.Node {
	if f.Decl != nil {
		return f.Decl
	}
	return f.Lit
}

// Pos returns the function's source position.
func (f *FuncInfo) Pos() token.Pos { return f.Node().Pos() }

// Type returns the function's signature.
func (f *FuncInfo) Type() *types.Signature {
	if f.Obj != nil {
		return f.Obj.Type().(*types.Signature)
	}
	if tv, ok := f.Pkg.Info.Types[f.Lit]; ok {
		if sig, ok := tv.Type.(*types.Signature); ok {
			return sig
		}
	}
	return types.NewSignatureType(nil, nil, nil, nil, nil, false)
}

// CFG lazily builds (and caches) the function's control-flow graph.
func (f *FuncInfo) CFG() *CFG {
	if f.cfg == nil {
		f.cfg = NewCFG(f.Node())
	}
	return f.cfg
}

// Program is the whole-program view: every package of one load plus the
// function index over them.
type Program struct {
	Fset *token.FileSet
	// ModulePath is the module's import-path prefix.
	ModulePath string
	// Packages is every package in the view, sorted by import path.
	Packages []*Package
	// Analyze is the subset whose files findings may be reported in.
	Analyze []*Package

	funcs map[*types.Func]*FuncInfo
	lits  map[*ast.FuncLit]*FuncInfo
	infos []*FuncInfo // deterministic order: package, file, source position

	analyzeFile map[string]bool
	seen        map[Diagnostic]bool
	diags       []Diagnostic

	graph    *CallGraph
	conc     *Concurrency
	lockSums map[*FuncInfo]*lockSummary
	shared   *sharedIndex
}

// NewProgram builds the program view over everything the loader has loaded
// plus the given analysis-scope packages (which may include uncached
// fixture packages). Findings are reported only inside the analyze set.
func NewProgram(l *Loader, analyze []*Package) *Program {
	byPath := map[string]*Package{}
	for _, p := range l.Loaded() {
		byPath[p.Path] = p
	}
	for _, p := range analyze {
		byPath[p.Path] = p
	}
	pkgs := make([]*Package, 0, len(byPath))
	for _, p := range byPath {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })

	prog := &Program{
		Fset:        l.Fset,
		ModulePath:  l.ModulePath(),
		Packages:    pkgs,
		Analyze:     analyze,
		funcs:       map[*types.Func]*FuncInfo{},
		lits:        map[*ast.FuncLit]*FuncInfo{},
		analyzeFile: map[string]bool{},
		seen:        map[Diagnostic]bool{},
	}
	for _, p := range analyze {
		for _, f := range p.Files {
			prog.analyzeFile[l.Fset.Position(f.Pos()).Filename] = true
		}
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			prog.indexFile(p, f)
		}
	}
	return prog
}

// indexFile registers every function body of one file, declarations first
// in source order, literals nested under their enclosing function.
func (prog *Program) indexFile(p *Package, file *ast.File) {
	// Literal counter per enclosing function, for stable $n names.
	litCount := map[*FuncInfo]int{}
	fileLits := 0

	var walk func(n ast.Node, encl *FuncInfo) bool
	walk = func(n ast.Node, encl *FuncInfo) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body == nil {
				return false
			}
			obj, _ := p.Info.Defs[x.Name].(*types.Func)
			if obj == nil {
				return false
			}
			fi := &FuncInfo{Pkg: p, Decl: x, Obj: obj, Name: obj.FullName()}
			prog.funcs[obj] = fi
			prog.infos = append(prog.infos, fi)
			ast.Inspect(x.Body, func(m ast.Node) bool { return m == x.Body || walk(m, fi) })
			return false
		case *ast.FuncLit:
			fi := &FuncInfo{Pkg: p, Lit: x, Encl: encl}
			if encl != nil {
				litCount[encl]++
				fi.Name = fmt.Sprintf("%s$%d", encl.Name, litCount[encl])
			} else {
				fileLits++
				fi.Name = fmt.Sprintf("%s.init$%d", p.Path, fileLits)
			}
			prog.lits[x] = fi
			prog.infos = append(prog.infos, fi)
			ast.Inspect(x.Body, func(m ast.Node) bool { return m == x.Body || walk(m, fi) })
			return false
		}
		return true
	}
	ast.Inspect(file, func(n ast.Node) bool { return n == file || walk(n, nil) })
}

// Funcs returns every function body in the program in deterministic order.
func (prog *Program) Funcs() []*FuncInfo { return prog.infos }

// FuncOf returns the FuncInfo of a declared function object (resolved
// through Origin for generic instantiations), nil when the function has no
// body in the program.
func (prog *Program) FuncOf(obj *types.Func) *FuncInfo {
	if obj == nil {
		return nil
	}
	return prog.funcs[obj.Origin()]
}

// LitOf returns the FuncInfo of a function literal.
func (prog *Program) LitOf(lit *ast.FuncLit) *FuncInfo { return prog.lits[lit] }

// LookupFunc finds a function by its printable Name. Test helper-grade
// linear scan.
func (prog *Program) LookupFunc(name string) *FuncInfo {
	for _, fi := range prog.infos {
		if fi.Name == name {
			return fi
		}
	}
	return nil
}

// InternalPath reports whether path is inside the module.
func (prog *Program) InternalPath(path string) bool {
	return path == prog.ModulePath || strings.HasPrefix(path, prog.ModulePath+"/")
}

// Reportf records a finding at pos. Findings outside the analyzed packages
// are dropped (interprocedural analyzers traverse dependency bodies, but a
// run over ./internal/sim must not report inside ./internal/nvm), as are
// exact duplicates (summary fixpoints revisit functions).
func (prog *Program) Reportf(pos token.Pos, rule, format string, args ...any) {
	d := Diagnostic{
		Pos:     prog.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
	if !prog.analyzeFile[d.Pos.Filename] || prog.seen[d] {
		return
	}
	prog.seen[d] = true
	prog.diags = append(prog.diags, d)
}

// takeDiagnostics returns and clears the accumulated findings.
func (prog *Program) takeDiagnostics() []Diagnostic {
	out := prog.diags
	prog.diags = nil
	return out
}

// Position renders a short file:line location for messages (base name only:
// messages must stay stable even when the tree moves).
func (prog *Program) Position(pos token.Pos) string {
	p := prog.Fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
