package trace

import (
	"testing"

	"mct/internal/rng"
)

// TestFillBatchSizeInvariance: consuming a generator through Fill with any
// batch size — including degenerate size 1 and a size far beyond the
// consumed total — yields exactly the stream repeated Next calls produce.
// This is the contract the streaming simulator's byte-identical-output
// guarantee rests on.
func TestFillBatchSizeInvariance(t *testing.T) {
	const total = 10_000
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ref := NewGenerator(spec, rng.NewRand(11))
		want := make([]Access, total)
		for i := range want {
			want[i] = ref.Next()
		}
		for _, batch := range []int{1, 7, 4096} {
			g := NewGenerator(spec, rng.NewRand(11))
			buf := make([]Access, batch)
			got := make([]Access, 0, total)
			for len(got) < total {
				n := batch
				if rem := total - len(got); n > rem {
					n = rem
				}
				if filled := g.Fill(buf[:n]); filled != n {
					t.Fatalf("%s: generator Fill returned %d, want %d (generators never exhaust)", name, filled, n)
				}
				got = append(got, buf[:n]...)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: batch size %d diverged from Next at access %d: %+v vs %+v",
						name, batch, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFillMatchesNextInterleaved: mixing Next and Fill calls on one
// generator still walks the single underlying stream.
func TestFillMatchesNextInterleaved(t *testing.T) {
	spec, err := ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	ref := NewGenerator(spec, rng.NewRand(5))
	want := Collect(ref, 600)

	g := NewGenerator(spec, rng.NewRand(5))
	var got []Access
	buf := make([]Access, 64)
	for len(got) < 600 {
		got = append(got, g.Next(), g.Next(), g.Next())
		g.Fill(buf[:47])
		got = append(got, buf[:47]...)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaved Next/Fill diverged at access %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestFillPhaseSwitchZeroAllocs: generating the stream allocates nothing,
// phase switches included. The spec's three phases last a few thousand
// instructions each and between them use every pattern, the hot region
// and burst shaping, so one Fill of a 4096-access batch takes the
// phase-switch branch of Next dozens of times.
func TestFillPhaseSwitchZeroAllocs(t *testing.T) {
	spec := Spec{Name: "shortphases", Phases: []Phase{
		{Insts: 3000, MPKI: 25, WriteFrac: 0.3, HotFrac: 0.5, HotBytes: 1 << 16, ColdBytes: 1 << 22, Pattern: Sequential},
		{Insts: 2000, MPKI: 40, WriteFrac: 0.6, ColdBytes: 1 << 24, Pattern: Strided, Stride: 256, BurstLen: 8, IdleMul: 4},
		{Insts: 4000, MPKI: 15, WriteFrac: 0.1, HotFrac: 0.2, HotBytes: 1 << 20, ColdBytes: 1 << 26, Pattern: Random},
	}}
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(spec, rng.NewRand(17))
	buf := make([]Access, 4096)

	probe := g.Clone()
	switches, phase := 0, probe.phaseIdx
	for range buf {
		probe.Next()
		if probe.phaseIdx != phase {
			switches++
			phase = probe.phaseIdx
		}
	}
	if switches < 50 {
		t.Fatalf("one batch crosses only %d phase boundaries; the gate needs many", switches)
	}

	avg := testing.AllocsPerRun(10, func() { g.Fill(buf) })
	if avg != 0 {
		t.Errorf("Fill allocates %.2f objects per %d-access batch across %d phase switches, want exactly 0", avg, len(buf), switches)
	}
}
