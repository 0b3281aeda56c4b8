package sim

import (
	"reflect"
	"strings"
	"testing"

	"mct/internal/cache"
	"mct/internal/config"
	"mct/internal/dram"
	"mct/internal/nvm"
	"mct/internal/obs"
)

// instrumentFields counts the *obs.Counter, *obs.Gauge and *obs.Histogram
// fields of struct type t, descending into pointers to the publishers it
// bundles.
func instrumentFields(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		ft := t.Field(i).Type
		if ft.Kind() != reflect.Pointer || ft.Elem().Kind() != reflect.Struct {
			continue
		}
		switch e := ft.Elem(); {
		case e == reflect.TypeOf(obs.Registry{}): // where they register, not an instrument
		case e.PkgPath() == "mct/internal/obs":
			n++
		default:
			n += instrumentFields(e)
		}
	}
	return n
}

// TestObsConstructorsRegisterEachField: every layer publisher, built on an
// empty registry, registers one name per instrument field. Two fields
// registered under one name share one instrument and silently merge two
// metrics, which the registry cannot see.
func TestObsConstructorsRegisterEachField(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func(r *obs.Registry) any
	}{
		{"cache", func(r *obs.Registry) any { return cache.NewObs(r, 16) }},
		{"nvm", func(r *obs.Registry) any { return nvm.NewObs(r, 1) }},
		{"dram", func(r *obs.Registry) any { return dram.NewObs(r) }},
		{"sim", func(r *obs.Registry) any { return newMachineObs(r, 16, 1, true) }},
	} {
		r := obs.NewRegistry()
		o := tc.make(r)
		if got, want := len(r.Names()), instrumentFields(reflect.TypeOf(o).Elem()); got != want {
			t.Errorf("%s: %d names registered for %d instrument fields: %v", tc.name, got, want, r.Names())
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
