package main

import (
	"reflect"
	"testing"

	"mct"
	"mct/internal/config"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		stride, accesses, workers int
		tiers                     config.TierConfig
		ok                        bool
	}{
		{"presets", 0, 0, 0, config.TierConfig{}, true},
		{"overrides", 4, 20_000, 2, config.TierConfig{DRAMCache: true, DRAMPromoteThreshold: 2}, true},
		{"negative stride", -1, 0, 0, config.TierConfig{}, false},
		{"negative accesses", 0, -1, 0, config.TierConfig{}, false},
		{"negative workers", 0, 0, -1, config.TierConfig{}, false},
		{"negative promote", 0, 0, 0, config.TierConfig{DRAMCache: true, DRAMPromoteThreshold: -1}, false},
		{"promote without dram", 0, 0, 0, config.TierConfig{DRAMPromoteThreshold: 2}, false},
	} {
		err := checkFlags(tc.stride, tc.accesses, tc.workers, tc.tiers)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestRunParams: the run scale comes from the -quick or default preset,
// and -insts overrides the MCT run length of either.
func TestRunParams(t *testing.T) {
	def, quick := mct.DefaultExperimentOptions(), mct.QuickExperimentOptions()
	withInsts := func(opt mct.ExperimentOptions, n uint64) mct.ExperimentOptions {
		opt.TotalInsts = n
		return opt
	}
	for _, tc := range []struct {
		name  string
		quick bool
		insts uint64
		want  mct.ExperimentOptions
	}{
		{"default", false, 0, def},
		{"default -insts", false, 3_000_000, withInsts(def, 3_000_000)},
		{"quick", true, 0, quick},
		{"quick -insts", true, 3_000_000, withInsts(quick, 3_000_000)},
	} {
		if got := experimentOptions(tc.quick, 0, 0, tc.insts, ""); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: experimentOptions = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
