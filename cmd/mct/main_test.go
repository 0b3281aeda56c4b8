package main

import (
	"reflect"
	"testing"

	"mct"
	"mct/internal/phase"
	"mct/internal/sim"
)

// TestRunOptions: the runtime budgets scale to -insts and are the defaults
// at 15M, the static reference runs at -lifetime, a -mix run warms the
// shared LLC with the multi-core warmup, a resumed machine skips the
// warmup, and -phases sets the detector interval.
func TestRunOptions(t *testing.T) {
	obj, ro, refs := runOptions(8, 15_000_000, "gboost", false, false, false)
	if want := mct.DefaultRuntimeOptions(); !reflect.DeepEqual(ro, want) {
		t.Errorf("at the 15M default: runtime options %+v, want the defaults %+v", ro, want)
	}
	if refs[1].cfg != mct.StaticBaseline() {
		t.Errorf("at the 8y default: static reference %v, want the static baseline", refs[1].cfg)
	}
	if refs[1].cfg != obj.Baseline() {
		t.Errorf("static reference %v, want the objective's baseline %v", refs[1].cfg, obj.Baseline())
	}

	obj, ro, refs = runOptions(4, 2_000_000, "quadratic-lasso", false, false, false)
	if want := mct.DefaultRuntimeOptions().ScaledTo(2_000_000); ro.SamplingTotalInsts != want.SamplingTotalInsts ||
		ro.BaselineInsts != want.BaselineInsts || ro.SampleUnitInsts != want.SampleUnitInsts {
		t.Errorf("-insts 2M: budgets (%d, %d, %d), want scaled (%d, %d, %d)",
			ro.SamplingTotalInsts, ro.BaselineInsts, ro.SampleUnitInsts,
			want.SamplingTotalInsts, want.BaselineInsts, want.SampleUnitInsts)
	}
	if ro.SamplingTotalInsts > 2_000_000/3 {
		t.Errorf("-insts 2M: sampling budget %d leaves less than two thirds of the run to test", ro.SamplingTotalInsts)
	}
	if ro.Model != "quadratic-lasso" {
		t.Errorf("-model: got %q", ro.Model)
	}
	if refs[0].cfg != mct.DefaultConfig() {
		t.Errorf("default reference %v, want the default system", refs[0].cfg)
	}
	if got := refs[1].cfg; got != obj.Baseline() || got.WearQuotaTarget != 4 {
		t.Errorf("-lifetime 4: static reference %v, want the baseline at 4y", got)
	}

	for _, tc := range []struct {
		name          string
		multi, resume bool
		want          int
	}{
		{"single-core", false, false, sim.DefaultWarmupAccesses},
		{"-mix", true, false, sim.MultiWarmupAccesses},
		{"-checkpoint-load", false, true, 0},
	} {
		if _, ro, _ := runOptions(8, 15_000_000, "gboost", false, tc.multi, tc.resume); ro.WarmupAccesses != tc.want {
			t.Errorf("%s: warmup %d accesses, want %d", tc.name, ro.WarmupAccesses, tc.want)
		}
	}

	if _, ro, _ := runOptions(8, 40_000_000, "gboost", true, false, false); !ro.EnablePhaseDetection || ro.TestChunkInsts != phase.DefaultInterval {
		t.Errorf("-phases: detection %v, chunk %d; want on at %d", ro.EnablePhaseDetection, ro.TestChunkInsts, phase.DefaultInterval)
	}
}
