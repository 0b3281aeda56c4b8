// A generic forward dataflow solver over the CFGs of cfg.go.
//
// Clients describe their lattice with FlowSpec: an entry fact, a join
// (which must be monotone — joining can only grow facts toward a fixpoint)
// and a transfer function applying one block's effect. ForwardSolve
// iterates a worklist in reverse post-order until block-entry facts stop
// changing and returns the entry and exit fact of every block.
//
// The framework is deliberately small: the analyzers it serves (lockflow,
// maprange) need may-analyses over finite fact domains (sets of held locks,
// reaching definitions), for which union joins converge in O(blocks ×
// domain) iterations. A safety cap guards against a non-monotone client.
package analysis

// FlowSpec describes one forward dataflow problem with facts of type F.
type FlowSpec[F any] struct {
	// Entry is the fact at function entry.
	Entry F
	// Bottom returns the identity element of Join, the initial fact of
	// every non-entry block.
	Bottom func() F
	// Clone returns an independent copy of a fact; transfer functions may
	// mutate their input freely.
	Clone func(F) F
	// Join merges src into dst and returns the result. It must be monotone
	// and may mutate dst.
	Join func(dst, src F) F
	// Equal reports whether two facts are equal (fixpoint detection).
	Equal func(a, b F) bool
	// Transfer applies block b's effect to the entry fact in, returning the
	// exit fact. It may mutate in.
	Transfer func(b *Block, in F) F
}

// FlowFacts holds the solved entry/exit facts per block.
type FlowFacts[F any] struct {
	In  map[*Block]F
	Out map[*Block]F
}

// ForwardSolve runs the problem to a fixpoint over g and returns the facts.
// Blocks unreachable from Entry keep Bottom facts.
func ForwardSolve[F any](g *CFG, spec FlowSpec[F]) FlowFacts[F] {
	in := make(map[*Block]F, len(g.Blocks))
	out := make(map[*Block]F, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b] = spec.Bottom()
		out[b] = spec.Bottom()
	}
	in[g.Entry] = spec.Clone(spec.Entry)

	queued := make([]bool, len(g.Blocks))
	var work []*Block
	for _, b := range g.ReversePostorder() {
		work = append(work, b)
		queued[b.Index] = true
	}

	// Safety cap: a monotone problem over a finite domain terminates long
	// before this; a buggy client terminates here instead of hanging the
	// lint run.
	budget := 64 * (len(g.Blocks) + 1) * (len(g.Blocks) + 1)
	for len(work) > 0 && budget > 0 {
		budget--
		b := work[0]
		work = work[1:]
		queued[b.Index] = false

		fact := spec.Clone(in[b])
		if b != g.Entry {
			for _, p := range b.Preds {
				fact = spec.Join(fact, out[p])
			}
		}
		newOut := spec.Transfer(b, spec.Clone(fact))
		in[b] = fact
		if spec.Equal(newOut, out[b]) {
			continue
		}
		out[b] = newOut
		for _, s := range b.Succs {
			if !queued[s.Index] {
				queued[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return FlowFacts[F]{In: in, Out: out}
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// post-order — the iteration order that lets forward problems converge in
// few passes.
func (g *CFG) ReversePostorder() []*Block {
	var post []*Block
	seen := map[*Block]bool{}
	var dfs func(*Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
