// Command mctlint runs the simulator-aware static analyzers of
// internal/analysis over the module and reports findings as
//
//	file:line: [rule] message
//
// exiting non-zero when anything error-severity is found. It is
// dependency-free (stdlib go/ast + go/types only).
//
// Usage:
//
//	mctlint ./...                             # whole module
//	mctlint ./internal/...                    # one subtree
//	mctlint ./internal/sim                    # one package
//	mctlint -rules                            # list rules (severity, scope) and exit
//	mctlint -only maprange,lockflow ./...     # run a subset of the registry
//	mctlint -skip allochot ./...              # run everything but a subset
//	mctlint -json ./...                       # machine-readable findings (stable order)
//	mctlint -allochot-json allocs.json ./...  # export the hot-path allocation worklist
//
// Rules are either package-scoped (one pass per package) or
// program-scoped: the interprocedural rules (allochot, lockflow) run over a
// whole-program view with a static call graph, so a run that selects any
// of them loads the transitive module dependencies of the requested
// packages too — findings are still reported only inside the requested
// packages. Data races are the race detector's job (CI runs go test -race
// over the whole module), not a lint rule's.
//
// Severity: each rule is "error" or "warn" (see -rules). Every error
// finding fails the run with exit 1 — there is no accepted-findings
// baseline; a finding is fixed or suppressed at its line with a reason.
// Warn findings (audit-class, e.g. allochot's allocation worklist) are
// printed and exported but do not affect the exit code.
//
// -json emits the findings as a JSON array sorted by (file, line, col,
// rule), with module-relative forward-slash paths, so the bytes are stable
// across runs and machines — CI archives them as a build artifact.
//
// -allochot-json writes the ranked hot-path allocation worklist in
// deterministic JSON for a CI artifact. It implies the whole-program load
// even when no program-scoped rule is selected.
//
// Suppress a finding with a trailing comment (or one on the line above):
//
//	//mctlint:ignore <rule> <reason>
//
// A directive without a reason, or naming a rule that is not in the
// registry, is itself reported under the reserved rule "mctlint".
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mct/internal/analysis"
)

func main() {
	rules := flag.Bool("rules", false, "list rules (name, severity, scope, doc) and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a stable JSON array")
	only := flag.String("only", "", "comma-separated rule names to run exclusively")
	skip := flag.String("skip", "", "comma-separated rule names to skip")
	allocPath := flag.String("allochot-json", "", "write the ranked hot-path allocation worklist as JSON to this path")
	flag.Parse()

	selected, err := selectRules(analysis.Analyzers(), *only, *skip)
	if err != nil {
		fatal(err)
	}

	if *rules {
		for _, a := range selected {
			scope := "package"
			if a.Interprocedural() {
				scope = "program"
			}
			fmt.Printf("%-14s %-5s %-8s %s\n", a.Name, a.EffectiveSeverity(), scope, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	moduleDir, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(moduleDir)
	if err != nil {
		fatal(err)
	}

	var paths []string
	seen := map[string]bool{}
	for _, arg := range args {
		ps, err := resolvePattern(loader, moduleDir, arg)
		if err != nil {
			fatal(err)
		}
		for _, p := range ps {
			if !seen[p] {
				seen[p] = true
				paths = append(paths, p)
			}
		}
	}

	var all []analysis.Diagnostic
	var pkgs []*analysis.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatal(err)
		}
		pkgs = append(pkgs, pkg)
		pass := analysis.NewPass(loader, pkg)
		all = append(all, analysis.RunAnalyzers(pass, selected)...)
	}

	interprocedural := false
	for _, a := range selected {
		if a.Interprocedural() {
			interprocedural = true
			break
		}
	}
	if interprocedural || *allocPath != "" {
		prog := analysis.NewProgram(loader, pkgs)
		if interprocedural {
			all = append(all, analysis.RunProgramAnalyzers(prog, selected)...)
		}
		if *allocPath != "" {
			out, err := allochotJSON(moduleDir, analysis.AllochotWorklist(prog))
			if err == nil {
				err = writeArtifact(*allocPath, out)
			}
			if err != nil {
				fatal(err)
			}
		}
	}

	findings := toJSONDiagnostics(moduleDir, all)
	applySeverities(findings, severityByRule(analysis.Analyzers()))

	if *jsonOut {
		out, err := renderJSON(findings)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
	} else {
		for _, d := range findings {
			fmt.Println(d)
		}
	}
	errs, warns := countBySeverity(findings)
	if warns > 0 {
		fmt.Fprintf(os.Stderr, "mctlint: %d warning(s)\n", warns)
	}
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "mctlint: %d finding(s)\n", errs)
		os.Exit(1)
	}
}

// selectRules filters the registry through -only and -skip (comma-separated
// rule names). Unknown names are an error: a typo must not silently run
// nothing.
func selectRules(all []*analysis.Analyzer, only, skip string) ([]*analysis.Analyzer, error) {
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	parse := func(flagName, csv string) (map[string]bool, error) {
		if csv == "" {
			return nil, nil
		}
		set := map[string]bool{}
		for _, n := range strings.Split(csv, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if byName[n] == nil {
				return nil, fmt.Errorf("-%s: unknown rule %q (see -rules)", flagName, n)
			}
			set[n] = true
		}
		return set, nil
	}
	onlySet, err := parse("only", only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse("skip", skip)
	if err != nil {
		return nil, err
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if onlySet != nil && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("rule selection left nothing to run")
	}
	return out, nil
}

// severityByRule maps every registry rule (plus the reserved "mctlint"
// directive-error rule) to its effective severity.
func severityByRule(all []*analysis.Analyzer) map[string]string {
	out := map[string]string{"mctlint": "error"}
	for _, a := range all {
		out[a.Name] = a.EffectiveSeverity()
	}
	return out
}

func countBySeverity(ds []jsonDiagnostic) (errs, warns int) {
	for _, d := range ds {
		if d.Severity == "warn" {
			warns++
		} else {
			errs++
		}
	}
	return errs, warns
}

// writeArtifact writes one JSON artifact, creating parent directories as
// needed.
func writeArtifact(path string, out []byte) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, out, 0o644)
}

// resolvePattern maps a ./dir or ./dir/... argument to import paths.
func resolvePattern(loader *analysis.Loader, moduleDir, arg string) ([]string, error) {
	recursive := false
	if arg == "..." {
		arg, recursive = ".", true
	} else if strings.HasSuffix(arg, "/...") {
		arg, recursive = strings.TrimSuffix(arg, "/..."), true
	}
	abs, err := filepath.Abs(arg)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(moduleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("mctlint: %s is outside module %s", arg, moduleDir)
	}
	if recursive {
		return loader.PackageDirs(abs)
	}
	ip := loader.ModulePath()
	if rel != "." {
		ip += "/" + filepath.ToSlash(rel)
	}
	return []string{ip}, nil
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("mctlint: no go.mod found above working directory")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mctlint: %v\n", err)
	os.Exit(2)
}
