package main

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"testing"

	"mct/api"
	"mct/internal/config"
	"mct/internal/experiments"
	"mct/internal/rng"
	"mct/internal/server"
	"mct/internal/sim"
	"mct/internal/trace"
)

// smallSweep is a reduced sweep leg for tests.
func smallSweep(seed int64) experiments.Options {
	o := sweepOptions(seed, 2)
	o.Stride = 400
	o.Accesses = 2_000
	return o
}

// TestWrongOutputsAreCounted checks that tampered reference digests make a
// sweep leg and the MCT runs fail instead of passing or aborting.
func TestWrongOutputsAreCounted(t *testing.T) {
	ctx := context.Background()
	if _, _, _, ok := runSweepLeg(ctx, "zeusmp", smallSweep(1), "tampered"); ok {
		t.Error("sweep leg with a tampered digest reported ok")
	}
	ts, _, err := mctSetup(1)
	if err != nil {
		t.Fatal(err)
	}
	u, err := runMCTUnit(env{seed: 1}, ts, map[string]string{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.t.attempted != len(mctLegs) || u.t.failed != len(mctLegs) {
		t.Errorf("mct runs with tampered digests: %d of %d failed", u.t.failed, u.t.attempted)
	}
}

// TestServeCountsFailures drives a real daemon with one good job, one bad
// spec and one job whose reference artifact was tampered with: the run goes
// on and counts exactly the last two as failed.
func TestServeCountsFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts mctd")
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, "mctd"), "mct/cmd/mctd").CombinedOutput(); err != nil {
		t.Fatalf("build mctd: %v\n%s", err, out)
	}
	ctx := context.Background()
	spec := api.JobSpec{V: api.Version, Kind: api.KindSweep, Benchmark: "lbm", Accesses: 500, Stride: 400}
	art, err := server.Execute(ctx, spec, server.ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := serveJob{spec: spec, body: api.Encode(spec), artifact: art}
	bad := serveJob{spec: api.JobSpec{Kind: api.KindEvaluate}, body: []byte(`{"v":1,"kind":"evaluate"}`)}
	tampered := good
	tampered.artifact = append(bytes.Clone(art), ' ')
	jobs := []*serveJob{&good, &bad, &tampered}

	d, err := startDaemon(dir, filepath.Join(dir, "state"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	done, tl, _ := driveClients(ctx, d.url, nil, func(c, k int) *serveJob {
		if c != 0 || k >= len(jobs) {
			return nil
		}
		return jobs[k]
	})
	if tl.attempted != 3 || tl.failed != 2 || len(done) != 1 {
		t.Fatalf("attempted %d failed %d completed %d, want 3, 2, 1", tl.attempted, tl.failed, len(done))
	}
}

// TestSeedDeterminism checks that a seed fixes every input and that
// different seeds give different access streams and job pools.
func TestSeedDeterminism(t *testing.T) {
	ctx := context.Background()
	digest := func(seed int64) string {
		experiments.ResetSweepCache()
		s, err := experiments.RunSweep(ctx, "zeusmp", false, smallSweep(seed))
		if err != nil {
			t.Fatal(err)
		}
		return sweepDigest(s)
	}
	if a, b := digest(5), digest(5); a != b {
		t.Errorf("seed 5 gave sweep digests %s and %s", a, b)
	}
	if a, b := digest(5), digest(6); a == b {
		t.Errorf("seeds 5 and 6 gave the same sweep digest %s", a)
	}

	stream := func(seed int64) []trace.Access {
		spec, err := trace.ByName("gups")
		if err != nil {
			t.Fatal(err)
		}
		return trace.Collect(trace.NewGenerator(spec, rng.NewRand(seed)), 1000)
	}
	if a, b := digestOf(stream(5)), digestOf(stream(5)); a != b {
		t.Error("seed 5 gave two access streams")
	}
	if a, b := digestOf(stream(5)), digestOf(stream(6)); a == b {
		t.Error("seeds 5 and 6 gave the same access stream")
	}
	pool := func(seed int64) string { return string(api.Encode(servePool(seed))) }
	if a, b := pool(5), pool(5); a != b {
		t.Error("seed 5 gave two job pools")
	}
	if a, b := pool(5), pool(6); a == b {
		t.Error("seeds 5 and 6 gave the same job pool")
	}
}

// TestGoldenMatchesReference recomputes one pinned seed through the
// reference paths.
func TestGoldenMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full sweep and mct references")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	sw, err := sweepReference(seed, sweepLegs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mctReference(seed)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]map[string]string{"sweep": sw, "mct": m} {
		want := g.expected(name, seed)
		if want == nil {
			t.Fatalf("golden.json does not pin %s seed %d", name, seed)
		}
		if digestOf(got) != digestOf(want) {
			t.Errorf("%s seed %d: reference %v, golden %v", name, seed, got, want)
		}
	}
	if g.expected("sweep", 2)["gups"] == g.expected("sweep", 3)["gups"] {
		t.Error("golden.json pins the same gups digest for seeds 2 and 3")
	}
}

// TestLayerSplitGuard checks that the composed pipelines reproduce the
// simulator on both hierarchies and on the multi-core machine, so the
// replayed layer times describe real traffic.
func TestLayerSplitGuard(t *testing.T) {
	cfgs := splitConfigsFor(3)
	for _, hybrid := range []bool{false, true} {
		o := sim.DefaultOptions()
		o.Seed = 3
		o.Tiers = config.TierConfig{DRAMCache: hybrid}
		s, err := splitLeg("lbm", o, cfgs, 5_000, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.guardChecks != len(cfgs) || s.guardFailures != 0 {
			t.Errorf("hybrid=%v: %d guard failures in %d checks", hybrid, s.guardFailures, s.guardChecks)
		}
	}
	diff, err := multiGuard("mix1", 3, cfgs[0], 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Errorf("mix1: %s", diff)
	}
}
