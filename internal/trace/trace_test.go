package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"mct/internal/rng"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("expected 10 benchmarks, got %d: %v", len(names), names)
	}
	for _, want := range []string{"lbm", "leslie3d", "zeusmp", "GemsFDTD", "milc", "bwaves", "libquantum", "ocean", "gups", "stream"} {
		if _, err := ByName(want); err != nil {
			t.Errorf("missing benchmark %s: %v", want, err)
		}
	}
	// Sorted.
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatal("Names() not sorted")
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestMixes(t *testing.T) {
	if len(MixNames()) != 6 {
		t.Fatalf("expected 6 mixes, got %v", MixNames())
	}
	specs, err := MixByName("mix1")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("mix1 has %d members, want 4", len(specs))
	}
	if _, err := MixByName("mix99"); err == nil {
		t.Fatal("unknown mix must error")
	}
}

func TestDeterminism(t *testing.T) {
	spec, _ := ByName("lbm")
	a := Collect(NewGenerator(spec, rng.NewRand(7)), 5000)
	b := Collect(NewGenerator(spec, rng.NewRand(7)), 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := Collect(NewGenerator(spec, rng.NewRand(8)), 5000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds must produce different traces")
	}
}

// Property: every access is line-aligned with a positive instruction gap.
func TestAccessInvariants(t *testing.T) {
	f := func(seed int64) bool {
		spec, _ := ByName("milc")
		g := NewGenerator(spec, rng.NewRand(seed))
		for i := 0; i < 2000; i++ {
			a := g.Next()
			if a.InstGap < 1 || a.Addr%LineBytes != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIntensityMatchesSpec(t *testing.T) {
	// Effective MPKI must land in a sane band around the spec (burst
	// shaping lowers it; it must never exceed the spec's nominal rate by
	// much).
	for _, name := range Names() {
		spec, _ := ByName(name)
		tr := Collect(NewGenerator(spec, rng.NewRand(1)), 100_000)
		var insts uint64
		var writes int
		for _, a := range tr {
			insts += uint64(a.InstGap)
			if a.Write {
				writes++
			}
		}
		mpki := float64(len(tr)) / float64(insts) * 1000
		nominal := spec.Phases[0].MPKI
		if mpki > nominal*1.3 {
			t.Errorf("%s: effective MPKI %.1f exceeds nominal %.1f", name, mpki, nominal)
		}
		if mpki < nominal*0.1 {
			t.Errorf("%s: effective MPKI %.1f far below nominal %.1f", name, mpki, nominal)
		}
		wf := float64(writes) / float64(len(tr))
		if wf < 0.05 || wf > 0.8 {
			t.Errorf("%s: write fraction %.2f out of band", name, wf)
		}
	}
}

func TestWriteFractionDiversity(t *testing.T) {
	// The learning problem depends on cross-application diversity: the
	// extreme write fractions must differ by at least 2x.
	lo, hi := 1.0, 0.0
	for _, name := range Names() {
		spec, _ := ByName(name)
		tr := Collect(NewGenerator(spec, rng.NewRand(1)), 50_000)
		writes := 0
		for _, a := range tr {
			if a.Write {
				writes++
			}
		}
		wf := float64(writes) / float64(len(tr))
		if wf < lo {
			lo = wf
		}
		if wf > hi {
			hi = wf
		}
	}
	if hi < 2*lo {
		t.Fatalf("write fractions not diverse: lo=%.2f hi=%.2f", lo, hi)
	}
}

func TestOceanHasPhases(t *testing.T) {
	spec, _ := ByName("ocean")
	if len(spec.Phases) < 2 {
		t.Fatal("ocean must be multi-phase")
	}
	// Windowed MPKI must vary substantially across the phase schedule.
	g := NewGenerator(spec, rng.NewRand(3))
	var mpkis []float64
	for w := 0; w < 16; w++ {
		var insts uint64
		n := 0
		for insts < 1_500_000 {
			a := g.Next()
			insts += uint64(a.InstGap)
			n++
		}
		mpkis = append(mpkis, float64(n)/float64(insts)*1000)
	}
	lo, hi := mpkis[0], mpkis[0]
	for _, m := range mpkis {
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if hi < 3*lo {
		t.Fatalf("ocean phase intensity does not vary: lo=%.2f hi=%.2f (%v)", lo, hi, mpkis)
	}
}

func TestAddressBaseSeparation(t *testing.T) {
	spec, _ := ByName("gups")
	a := NewGeneratorAt(spec, rng.NewRand(1), 0)
	b := NewGeneratorAt(spec, rng.NewRand(1), 1<<34)
	for i := 0; i < 1000; i++ {
		if a.Next().Addr>>34 == b.Next().Addr>>34 {
			t.Fatal("address bases must separate cores")
		}
	}
}

func TestPatternKinds(t *testing.T) {
	if Sequential.String() != "sequential" || Strided.String() != "strided" || Random.String() != "random" {
		t.Fatal("PatternKind strings wrong")
	}
	if PatternKind(9).String() == "" {
		t.Fatal("unknown pattern must still render")
	}
}

func TestSequentialWalksLines(t *testing.T) {
	spec := Spec{Name: "seq", Phases: []Phase{{
		Insts: 1 << 40, MPKI: 50, WriteFrac: 0, ColdBytes: 1 << 20, Pattern: Sequential,
	}}}
	g := NewGenerator(spec, rng.NewRand(1))
	prev := g.Next().Addr
	for i := 0; i < 100; i++ {
		a := g.Next()
		if a.Addr != prev+LineBytes && a.Addr != coldRegionBase {
			t.Fatalf("sequential pattern jumped: %#x after %#x", a.Addr, prev)
		}
		prev = a.Addr
	}
}

func TestNewGeneratorPanicsOnEmptySpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty spec")
		}
	}()
	NewGenerator(Spec{Name: "empty"}, rng.NewRand(1))
}

// TestGeneratorCloneEquivalence: a clone taken mid-stream continues the
// byte-identical access sequence the parent would have produced.
func TestGeneratorCloneEquivalence(t *testing.T) {
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(spec, rng.NewRand(9))
		Collect(g, 2000) // advance into the stream (and across phases)
		c := g.Clone()
		want := Collect(g, 3000)
		got := Collect(c, 3000)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: access %d diverged: %+v vs %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestGeneratorCloneIsolation: advancing a clone never perturbs the parent.
func TestGeneratorCloneIsolation(t *testing.T) {
	spec, err := ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(spec, rng.NewRand(3))
	Collect(g, 500)
	ref := g.Clone() // frozen reference position
	c := g.Clone()
	Collect(c, 4000) // churn the clone
	want := Collect(ref, 1000)
	got := Collect(g, 1000)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d of parent perturbed by clone activity: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestGeneratorSnapshotRoundTrip: FromState(g.Snapshot()) continues the
// identical stream, including mid-phase and mid-burst positions.
func TestGeneratorSnapshotRoundTrip(t *testing.T) {
	spec, err := ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGeneratorAt(spec, rng.NewRand(17), 1<<34)
	Collect(g, 1234)
	r := mustFromState(t, g.Snapshot())
	want := Collect(g, 2000)
	got := Collect(r, 2000)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d diverged after snapshot round trip: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestSnapshotAtArbitraryCutPoints: a generator snapshotted at ANY position
// in its stream — mid-burst, mid-phase, mid-cold-walk — and rebuilt via
// FromState continues the byte-identical stream. This is the property the
// streaming Prepared path rests on: it replays measurement streams from a
// GeneratorState cut wherever warmup happened to stop. The cut offsets are
// co-prime-ish with the burst lengths and phase schedules so cuts land at
// many distinct burst/phase positions across benchmarks.
func TestSnapshotAtArbitraryCutPoints(t *testing.T) {
	const lookahead = 500
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGeneratorAt(spec, rng.NewRand(23), 1<<33)
		pos := 0
		for _, cut := range []int{0, 1, 3, 17, 101, 757, 2048, 4999, 9973, 30011} {
			// Advance to the cut point.
			for ; pos < cut; pos++ {
				g.Next()
			}
			st := g.Snapshot()
			r := mustFromState(t, st)
			// A second rebuild from the same state must also work (states
			// are values; rebuilding must not consume them).
			r2 := mustFromState(t, st)
			for i := 0; i < lookahead; i++ {
				want := g.Next()
				if got := r.Next(); got != want {
					t.Fatalf("%s: cut %d: rebuilt generator diverged at +%d: %+v vs %+v", name, cut, i, got, want)
				}
				if got := r2.Next(); got != want {
					t.Fatalf("%s: cut %d: second rebuild diverged at +%d", name, cut, i)
				}
			}
			pos += lookahead
		}
	}
}

// TestSnapshotCutMidBurst pins the mid-burst case explicitly: ocean's phase
// schedule includes bursty phases, and a cut inside a quiet span must
// preserve the burst position (gap stretching resumes where it left off).
func TestSnapshotCutMidBurst(t *testing.T) {
	spec, err := ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	// Find a bursty phase to target.
	burst := uint64(0)
	for _, ph := range spec.Phases {
		if ph.BurstLen > 0 {
			burst = ph.BurstLen
			break
		}
	}
	if burst == 0 {
		t.Skip("ocean has no bursty phase")
	}
	g := NewGenerator(spec, rng.NewRand(41))
	for i := 0; i < 50_000; i++ {
		g.Next()
		// Cut whenever we are strictly inside a quiet span (odd burst block,
		// not at a boundary).
		if g.burstPos > 0 && (g.burstPos/burst)%2 == 1 && g.burstPos%burst == burst/2 {
			r := mustFromState(t, g.Snapshot())
			if r.burstPos != g.burstPos {
				t.Fatalf("burst position lost across snapshot: %d vs %d", r.burstPos, g.burstPos)
			}
			for j := 0; j < 200; j++ {
				want := g.Next()
				if got := r.Next(); got != want {
					t.Fatalf("mid-burst cut diverged at +%d", j)
				}
			}
			return
		}
	}
	t.Fatal("never observed a mid-quiet-span position in 50k accesses")
}

func mustFromState(t *testing.T, st GeneratorState) *Generator {
	t.Helper()
	g, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAccessIs16Bytes pins the packed layout: Addr first, then InstGap and
// Write share the second word. A reorder back to InstGap-first pads the
// struct to 24 bytes and grows every batch buffer and replay window by half.
func TestAccessIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Access{}); got != 16 {
		t.Fatalf("trace.Access is %d bytes, want 16", got)
	}
}

// TestFromStateRejectsCorruptState: checkpoint-borne generator states that
// would panic or produce garbage in Next are refused by FromState with an
// error naming the fault, and every registered benchmark's state passes.
func TestFromStateRejectsCorruptState(t *testing.T) {
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FromState(NewGenerator(spec, rng.NewRand(1)).Snapshot()); err != nil {
			t.Errorf("%s: valid state rejected: %v", name, err)
		}
	}
	spec, err := ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	phase := func(edit func(*Phase)) GeneratorState {
		st := NewGenerator(spec, rng.NewRand(1)).Snapshot()
		st.Spec.Phases = append([]Phase(nil), spec.Phases...)
		edit(&st.Spec.Phases[len(st.Spec.Phases)-1])
		return st
	}
	withIdx := func(i int) GeneratorState {
		st := NewGenerator(spec, rng.NewRand(1)).Snapshot()
		st.PhaseIdx = i
		return st
	}
	noPhases := NewGenerator(spec, rng.NewRand(1)).Snapshot()
	noPhases.Spec.Phases = nil
	for _, tc := range []struct {
		name string
		st   GeneratorState
		want string
	}{
		{"phase index 99", withIdx(99), "phase index"},
		{"phase index -1", withIdx(-1), "phase index"},
		{"no phases", noPhases, "no phases"},
		{"zero MPKI", phase(func(p *Phase) { p.MPKI = 0 }), "MPKI"},
		{"negative MPKI", phase(func(p *Phase) { p.MPKI = -3 }), "MPKI"},
		{"NaN MPKI", phase(func(p *Phase) { p.MPKI = math.NaN() }), "MPKI"},
		{"infinite MPKI", phase(func(p *Phase) { p.MPKI = math.Inf(1) }), "MPKI"},
		{"WriteFrac above 1", phase(func(p *Phase) { p.WriteFrac = 1.5 }), "WriteFrac"},
		{"NaN WriteFrac", phase(func(p *Phase) { p.WriteFrac = math.NaN() }), "WriteFrac"},
		{"negative HotFrac", phase(func(p *Phase) { p.HotFrac = -0.1 }), "HotFrac"},
	} {
		g, err := FromState(tc.st)
		if err == nil || g != nil {
			t.Errorf("%s: FromState accepted the state", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
