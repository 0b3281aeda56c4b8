package main

import (
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
	got, err := selectRules(analysis.Analyzers(), "maprange, goleak", "")
	if err != nil {
		t.Fatal(err)
	}
	if names := ruleNames(got); len(names) != 2 || names[0] != "maprange" || names[1] != "goleak" {
		t.Errorf("-only maprange,goleak selected %v", names)
	}
}

func TestSelectRulesSkip(t *testing.T) {
	all := analysis.Analyzers()
	got, err := selectRules(all, "", "cyclecast")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all)-1 {
		t.Errorf("-skip cyclecast selected %d rules, want %d", len(got), len(all)-1)
	}
	for _, a := range got {
		if a.Name == "cyclecast" {
			t.Error("cyclecast survived -skip cyclecast")
		}
	}
}

func TestSelectRulesOnlyAndSkipCompose(t *testing.T) {
	got, err := selectRules(analysis.Analyzers(), "maprange,cyclecast,goleak", "cyclecast")
	if err != nil {
		t.Fatal(err)
	}
	if names := ruleNames(got); len(names) != 2 || names[0] != "maprange" || names[1] != "goleak" {
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
