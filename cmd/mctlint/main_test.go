package main

import (
	"strings"
	"testing"

	"mct/internal/analysis"
)

func ruleNames(as []*analysis.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

func TestSelectRulesDefault(t *testing.T) {
	all := analysis.Analyzers()
	got, err := selectRules(all, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Errorf("no filters must select the whole registry: %d != %d", len(got), len(all))
	}
}

func TestSelectRulesOnly(t *testing.T) {
	got, err := selectRules(analysis.Analyzers(), "maprange, lockflow", "")
	if err != nil {
		t.Fatal(err)
	}
	if names := ruleNames(got); len(names) != 2 || names[0] != "maprange" || names[1] != "lockflow" {
		t.Errorf("-only maprange,lockflow selected %v", names)
	}
}

func TestSelectRulesSkip(t *testing.T) {
	all := analysis.Analyzers()
	got, err := selectRules(all, "", "allochot")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all)-1 {
		t.Errorf("-skip allochot selected %d rules, want %d", len(got), len(all)-1)
	}
	for _, a := range got {
		if a.Name == "allochot" {
			t.Error("allochot survived -skip allochot")
		}
	}
}

func TestSelectRulesOnlyAndSkipCompose(t *testing.T) {
	got, err := selectRules(analysis.Analyzers(), "maprange,allochot,lockflow", "allochot")
	if err != nil {
		t.Fatal(err)
	}
	if names := ruleNames(got); len(names) != 2 || names[0] != "maprange" || names[1] != "lockflow" {
		t.Errorf("composed filters selected %v", names)
	}
}

func TestSelectRulesErrors(t *testing.T) {
	if _, err := selectRules(analysis.Analyzers(), "maprnge", ""); err == nil {
		t.Error("typo in -only must error, not silently run nothing")
	}
	if _, err := selectRules(analysis.Analyzers(), "", "nosuchrule"); err == nil {
		t.Error("unknown rule in -skip must error")
	}
	if _, err := selectRules(analysis.Analyzers(), "maprange", "maprange"); err == nil {
		t.Error("empty selection must error")
	}
}

func TestSeverityStamping(t *testing.T) {
	sev := severityByRule(analysis.Analyzers())
	if sev["allochot"] != "warn" {
		t.Errorf("allochot severity = %q, want warn", sev["allochot"])
	}
	for _, rule := range []string{"maprange", "lockflow", "norandglobal", "mctlint"} {
		if sev[rule] != "error" {
			t.Errorf("%s severity = %q, want error", rule, sev[rule])
		}
	}

	ds := []jsonDiagnostic{
		{File: "a.go", Rule: "allochot", Message: "m"},
		{File: "a.go", Rule: "maprange", Message: "m"},
	}
	applySeverities(ds, sev)
	if ds[0].Severity != "warn" || ds[1].Severity != "error" {
		t.Errorf("stamped severities = %q, %q", ds[0].Severity, ds[1].Severity)
	}
	errs, warns := countBySeverity(ds)
	if errs != 1 || warns != 1 {
		t.Errorf("countBySeverity = (%d, %d), want (1, 1)", errs, warns)
	}
}

// TestArtifactRendering exercises the JSON exports over an empty worklist
// and a synthetic one: valid JSON, newline-terminated, rank order kept.
func TestArtifactRendering(t *testing.T) {
	out, err := allochotJSON("/m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "[]\n" {
		t.Errorf("empty worklist = %q, want []\\n", out)
	}

	sites := []analysis.AllocSite{
		{Func: "mct/internal/sim.step", Kind: "append", InLoop: true, Depth: 0},
		{Func: "mct/internal/nvm.helper", Kind: "make", InLoop: false, Depth: 2},
	}
	out, err = allochotJSON("/m", sites)
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	if !strings.HasSuffix(s, "\n") {
		t.Error("worklist JSON not newline-terminated")
	}
	if i, j := strings.Index(s, "sim.step"), strings.Index(s, "nvm.helper"); i < 0 || j < 0 || i > j {
		t.Errorf("worklist order not preserved in render:\n%s", s)
	}
}
