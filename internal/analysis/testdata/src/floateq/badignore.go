package floateq

// missingReason carries a directive without a reason: it is reported as
// malformed (rule "mctlint") and suppresses nothing, so the violation below
// still fires.
func missingReason(a, b float64) bool {
	//mctlint:ignore floateq
	return a == b // want floateq
}

// unknownRule carries a well-formed directive naming a rule that is not in
// the registry (a misspelling here; a deleted rule in practice): it is
// reported (rule "mctlint") and suppresses nothing.
func unknownRule(a, b float64) bool {
	//mctlint:ignore floateqq both sides copied from the same source
	return a == b // want floateq
}
