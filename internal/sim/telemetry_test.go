package sim

import (
	"maps"
	"reflect"
	"strings"
	"testing"

	"mct/internal/config"
	"mct/internal/obs"
)

// nvmOnlyInstruments is every instrument AttachObserver registers on an
// NVM-only machine, by name, with its kind; dramInstruments are the ones a
// DRAM tier adds. Renaming a Stats field renames its counter, and fails
// here.
var nvmOnlyInstruments = map[string]string{
	"cache.hits": "counter", "cache.misses": "counter",
	"cache.writebacks": "counter", "cache.eager_writes": "counter",
	"cache.lru_hit_position": "histogram", "cache.writeback_rate": "gauge",

	"nvm.reads": "counter", "nvm.read_latency_cycles": "counter",
	"nvm.demand_writes": "counter", "nvm.eager_writes": "counter",
	"nvm.fast_writes": "counter", "nvm.slow_writes": "counter",
	"nvm.forced_writes": "counter", "nvm.cancelled_writes": "counter",
	"nvm.read_cell_cycles": "counter", "nvm.write_pulse_cycles": "counter",
	"nvm.row_hits": "counter", "nvm.row_misses": "counter",
	"nvm.queue_full_stalls": "counter", "nvm.forced_slices": "counter",
	"nvm.total_slices": "counter", "nvm.eager_conversions": "counter",
	"nvm.bank_queue_depth": "histogram", "nvm.bank_wear": "histogram",
	"nvm.wear_max_frac": "gauge", "nvm.wear_total": "gauge",
	"nvm.write_queue_peak": "gauge",

	"sim.windows": "counter",
}

var dramInstruments = map[string]string{
	"dram.hits": "counter", "dram.misses": "counter",
	"dram.write_hits": "counter", "dram.write_misses": "counter",
	"dram.eager_absorbed": "counter", "dram.promotions": "counter",
	"dram.writebacks": "counter", "dram.drain_flushes": "counter",
	"dram.hit_rate": "gauge",
}

// TestAttachObserverRegistersExactly: AttachObserver registers exactly
// the pinned instruments, 28 on an NVM-only machine and 37 with the DRAM
// tier, each under its pinned kind.
func TestAttachObserverRegistersExactly(t *testing.T) {
	withDRAM := maps.Clone(nvmOnlyInstruments)
	maps.Copy(withDRAM, dramInstruments)
	for _, tc := range []struct {
		name string
		opt  Options
		want map[string]string
		n    int
	}{
		{"nvm-only", DefaultOptions(), nvmOnlyInstruments, 28},
		{"dram", tieredOptions(), withDRAM, 37},
	} {
		m, err := NewMachine(mustSpec(t, "lbm"), config.Default(), tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		m.AttachObserver(reg)
		got := map[string]string{}
		for _, in := range reg.State().Instruments {
			got[in.Name] = in.Kind
		}
		if len(tc.want) != tc.n || !maps.Equal(got, tc.want) {
			t.Errorf("%s: registered %d instruments %v, want %d %v", tc.name, len(got), got, tc.n, tc.want)
		}
	}
}

// statsField names the Stats field a layer counter publishes:
// "nvm.row_hits" publishes RowHits.
func statsField(counter string) string {
	if counter == "nvm.read_latency_cycles" {
		return "ReadLatencySum"
	}
	_, rest, _ := strings.Cut(counter, ".")
	var b strings.Builder
	for _, w := range strings.Split(rest, "_") {
		b.WriteString(strings.ToUpper(w[:1]) + w[1:])
	}
	return b.String()
}

// checkCounters requires every counter of reg in a layer of after (keyed
// "cache", "nvm", "dram"; each value is that layer's Stats) to equal the
// growth of its Stats field since before, and records the counters that
// moved.
func checkCounters(t *testing.T, run string, reg *obs.Registry, before, after map[string]any, moved map[string]bool) {
	t.Helper()
	for _, in := range reg.State().Instruments {
		name, v := in.Name, in.Count
		layer, _, _ := strings.Cut(name, ".")
		if in.Kind != "counter" || after[layer] == nil {
			continue
		}
		field := statsField(name)
		f1 := reflect.ValueOf(after[layer]).FieldByName(field)
		if !f1.IsValid() || f1.Kind() != reflect.Uint64 {
			t.Errorf("%s: counter %s has no uint64 field %s in %T", run, name, field, after[layer])
			continue
		}
		if grew := f1.Uint() - reflect.ValueOf(before[layer]).FieldByName(field).Uint(); v != grew {
			t.Errorf("%s: counter %s = %d, but %T.%s grew by %d", run, name, v, after[layer], field, grew)
		}
		if v != 0 {
			moved[name] = true
		}
	}
}

// TestLayerCountersMatchStats: after an observed run, every nvm.*, cache.*
// and dram.* counter equals the growth of the Stats field it publishes.
// The runs are chosen so that each counter moves in at least one of them.
func TestLayerCountersMatchStats(t *testing.T) {
	quota := config.StaticBaseline()
	quota.WearQuotaTarget = 20 // tight enough to force slices and writes
	smallQueues := DefaultOptions()
	p := &smallQueues.Params
	p.WriteQueueCap, p.DrainLow, p.DrainHigh, p.EagerQueueCap = 8, 4, 8, 2
	lazyDRAM := tieredOptions()
	lazyDRAM.Tiers.DRAMPromoteThreshold = 4

	moved := map[string]bool{}
	for _, tc := range []struct {
		bench string
		cfg   config.Config
		opt   Options
	}{
		{"gups", config.Default(), smallQueues},
		{"gups", config.StaticBaseline(), smallQueues},
		{"lbm", quota, DefaultOptions()},
		{"lbm", config.StaticBaseline(), tieredOptions()},
		{"gups", config.Default(), tieredOptions()},
		{"gups", config.Default(), lazyDRAM},
	} {
		m, err := NewMachine(mustSpec(t, tc.bench), tc.cfg, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		m.Warmup(200_000)
		reg := obs.NewRegistry()
		m.AttachObserver(reg)
		stats := func() map[string]any {
			s := map[string]any{"cache": m.llc.Stats(), "nvm": m.ctrl.Stats()}
			if m.dram != nil {
				s["dram"] = m.dram.Stats()
			}
			return s
		}
		before := stats()
		runWindow(m, 100_000)
		m.finishRun()
		m.SyncObserver()
		checkCounters(t, tc.bench, reg, before, stats(), moved)
	}

	all := obs.NewRegistry()
	newMachineObs(all, 16, 1, true)
	for _, in := range all.State().Instruments {
		if in.Kind == "counter" && !strings.HasPrefix(in.Name, "sim.") && !moved[in.Name] {
			t.Errorf("counter %s stayed zero in every run", in.Name)
		}
	}
}
