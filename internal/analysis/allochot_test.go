package analysis

import (
	"path/filepath"
	"testing"
)

// TestAllochotWorklistRanked asserts the suppression-blind worklist export:
// in-loop sites first, then shallower call depth, with positions rendered
// for the CI artifact.
func TestAllochotWorklistRanked(t *testing.T) {
	const src = `package snippet

type job struct{ buf []byte }

//mctlint:hotpath
func step(js []*job) {
	for _, j := range js {
		j.buf = append(j.buf, expand(len(j.buf))...)
	}
	finish()
}

func expand(n int) []byte {
	return make([]byte, n+1)
}

func finish() {
	_ = new(job)
}
`
	prog := loadSnippet(t, src)
	sites := AllochotWorklist(prog)
	if len(sites) < 3 {
		t.Fatalf("want ≥3 alloc sites (append in loop, make in callee, new in finish), got %d: %+v", len(sites), sites)
	}
	// Rank: every in-loop site precedes every out-of-loop site; within a
	// group, shallower depth first.
	for i := 1; i < len(sites); i++ {
		a, b := sites[i-1], sites[i]
		if !a.InLoop && b.InLoop {
			t.Errorf("site %d (in loop) ranked after site %d (not in loop)", i, i-1)
		}
		if a.InLoop == b.InLoop && a.Depth > b.Depth {
			t.Errorf("equal loop class but depth %d ranked before %d", a.Depth, b.Depth)
		}
	}
	if sites[0].Pos.Filename == "" || sites[0].Pos.Line == 0 {
		t.Errorf("worklist positions must carry file and line, got %v", sites[0].Pos)
	}
	// The append inside the range loop is the top-ranked site.
	if !sites[0].InLoop {
		t.Error("top-ranked site must be the in-loop append")
	}
	if base := filepath.Base(sites[0].Pos.Filename); base != "snippet.go" {
		t.Errorf("top site in %s, want snippet.go", base)
	}
}
