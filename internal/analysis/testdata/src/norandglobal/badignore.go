package norandglobal

import "math/rand"

// missingReason carries a directive without a reason: it is reported as
// malformed (rule "mctlint") and suppresses nothing, so the violation below
// still fires.
func missingReason() float64 {
	//mctlint:ignore norandglobal
	return rand.Float64() // want norandglobal
}

// unknownRule carries a well-formed directive naming a rule that is not in
// the registry (a misspelling here; a deleted rule in practice): it is
// reported (rule "mctlint") and suppresses nothing.
func unknownRule() float64 {
	//mctlint:ignore norandglobl draws from the global source on purpose
	return rand.Float64() // want norandglobal
}
