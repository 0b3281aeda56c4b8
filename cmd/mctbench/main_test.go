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

func TestRunParams(t *testing.T) {
	def, quick := mct.DefaultExperimentRunParams(), mct.QuickExperimentRunParams()
	withInsts := func(rp mct.ExperimentRunParams, n uint64) mct.ExperimentRunParams {
		rp.TotalInsts = n
		return rp
	}
	for _, tc := range []struct {
		name  string
		quick bool
		insts uint64
		want  mct.ExperimentRunParams
	}{
		{"default", false, 0, def},
		{"default -insts", false, 3_000_000, withInsts(def, 3_000_000)},
		{"quick", true, 0, quick},
		{"quick -insts", true, 3_000_000, withInsts(quick, 3_000_000)},
	} {
		if got := runParams(tc.quick, tc.insts); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: runParams = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
