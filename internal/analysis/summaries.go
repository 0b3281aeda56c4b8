// Bottom-up, memoized function summaries over call-graph SCCs.
//
// A summary-based interprocedural analysis describes each function by a
// finite abstraction of its behavior — which parameters flow to which
// results, which effects the body performs — and composes those summaries
// at call sites instead of inlining bodies. SummarySolver owns the
// scheduling half of that recipe: it walks the call graph's SCCs in
// reverse topological order (callees before callers, so a summary is
// usually final before its first use) and iterates mutually recursive
// components to a fixpoint. The analysis half — what a summary is and how
// one function's summary is computed given its callees' — is the client's
// Compute callback, which typically runs a FlowSpec dataflow solve (see
// dataflow.go) over the function body.
//
// Termination: Compute must be monotone in its callees' summaries (a
// bigger input summary can only produce a bigger output) and the summary
// domain finite, the same contract ForwardSolve imposes on facts. A
// rounds cap guards against a non-monotone client, mirroring the solver's
// budget.
package analysis

// SummarySolver computes one summary of type S per call-graph node.
type SummarySolver[S any] struct {
	// Graph is the call graph to walk.
	Graph *CallGraph
	// Bottom returns the summary assumed for a function not yet computed
	// (the identity the fixpoint grows from, and the final answer for
	// functions outside the program).
	Bottom func() S
	// Compute builds fn's summary. get returns the current summary of any
	// other node — final for callees in earlier SCCs, the running
	// approximation for members of fn's own SCC.
	Compute func(fn *FuncInfo, get func(*FuncInfo) S) S
	// Equal reports summary equality, the SCC fixpoint test.
	Equal func(a, b S) bool
}

// Solve computes every node's summary.
func (s *SummarySolver[S]) Solve() map[*FuncInfo]S {
	sums := make(map[*FuncInfo]S, len(s.Graph.Nodes))
	get := func(fn *FuncInfo) S {
		if v, ok := sums[fn]; ok {
			return v
		}
		return s.Bottom()
	}
	for _, scc := range s.Graph.SCCs() {
		recursive := len(scc) > 1 || s.selfLoop(scc[0])
		// The round cap is generous for any monotone client; it only bounds
		// a non-monotone one.
		rounds := 8 + 2*len(scc)
		for r := 0; r < rounds; r++ {
			changed := false
			for _, fn := range scc {
				next := s.Compute(fn, get)
				if !s.Equal(next, get(fn)) {
					sums[fn] = next
					changed = true
				}
			}
			if !changed || !recursive {
				break
			}
		}
	}
	return sums
}

// selfLoop reports whether fn calls itself directly.
func (s *SummarySolver[S]) selfLoop(fn *FuncInfo) bool {
	for _, e := range s.Graph.Out[fn] {
		if callEdge(e.Kind) && e.Callee == fn {
			return true
		}
	}
	return false
}
