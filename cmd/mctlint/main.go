// Command mctlint runs the simulator-aware static analyzers of
// internal/analysis over the module, one pass per type-checked package,
// and reports findings as
//
//	file:line: [rule] message
//
// exiting 1 when anything is found. It is dependency-free (stdlib go/ast
// + go/types only).
//
// Usage:
//
//	mctlint ./...                           # whole module
//	mctlint ./internal/...                  # one subtree
//	mctlint ./internal/sim                  # one package
//	mctlint -rules                          # list rules and exit
//	mctlint -only maprange,goleak ./...     # run a subset of the registry
//	mctlint -skip cyclecast ./...           # run everything but a subset
//	mctlint -json ./...                     # machine-readable findings (stable order)
//
// Every finding fails the run: there is no accepted-findings baseline; a
// finding is fixed or suppressed at its line with a reason. Data races are
// the race detector's job (CI runs go test -race over the whole module),
// hot-path allocations the zero-alloc tests', not a lint rule's.
//
// -json emits the findings as a JSON array sorted by (file, line, col,
// rule), with module-relative forward-slash paths, so the bytes are stable
// across runs and machines — CI archives them as a build artifact.
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
	rules := flag.Bool("rules", false, "list rules (name, doc) and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a stable JSON array")
	only := flag.String("only", "", "comma-separated rule names to run exclusively")
	skip := flag.String("skip", "", "comma-separated rule names to skip")
	flag.Parse()

	selected, err := selectRules(analysis.Analyzers(), *only, *skip)
	if err != nil {
		fatal(err)
	}

	if *rules {
		for _, a := range selected {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
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
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatal(err)
		}
		all = append(all, analysis.RunAnalyzers(analysis.NewPass(loader, pkg), selected)...)
	}

	findings := toJSONDiagnostics(moduleDir, all)
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
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "mctlint: %d finding(s)\n", len(findings))
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
