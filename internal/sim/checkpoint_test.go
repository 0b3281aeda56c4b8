package sim

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mct/internal/config"
	"mct/internal/obs"
	"mct/internal/trace"
)

// smallObservedMachine is an observed lbm machine under the static
// baseline on a small LLC and four banks, with a small DRAM tier when
// withDRAM is set, so that its checkpoint stays a few kilobytes. Its
// controller has issued writes at two ratios or more.
func smallObservedMachine(t testing.TB, withDRAM bool) *Machine {
	t.Helper()
	opt := DefaultOptions()
	opt.CacheBytes, opt.CacheWays = 8<<10, 4
	opt.Params.Banks = 4
	if withDRAM {
		opt.Tiers.DRAMCache = true
		opt.DRAM.CacheBytes, opt.DRAM.Ways, opt.DRAM.HotTableSize = 16<<10, 4, 64
	}
	spec, err := trace.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(spec, config.StaticBaseline(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachObserver(obs.NewRegistry())
	m.RunAccesses(20_000)
	if n := len(m.ctrl.Stats().WritesByRatio); n < 2 {
		t.Fatalf("machine issued writes at %d ratios, want at least 2", n)
	}
	return m
}

func checkpointBytes(t testing.TB, m *Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeCheckpoint(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointBytesStable: twenty checkpoints of one observed machine
// state are byte-equal, although its maps (writes by ratio, the
// observer's instruments) iterate in a new order each time.
func TestCheckpointBytesStable(t *testing.T) {
	m := smallObservedMachine(t, true)
	want := checkpointBytes(t, m)
	for i := 1; i < 20; i++ {
		if got := checkpointBytes(t, m); !bytes.Equal(got, want) {
			t.Fatalf("checkpoint %d of one state differs from the first", i)
		}
	}
}

// fuzzSeed returns the checkpoint bytes of a FuzzLoadCheckpoint seed.
func fuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadCheckpoint", name))
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(body, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
	return []byte(b)
}

// TestCheckpointSeeds: the FuzzLoadCheckpoint seeds of a saved machine
// load and save back to their own bytes; the version-1 seed (map-form)
// fails with a version error, and the crafted ones with an error.
func TestCheckpointSeeds(t *testing.T) {
	for _, name := range []string{"observed", "dram-tier"} {
		b := fuzzSeed(t, name)
		m, err := readCheckpoint(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("seed %s does not load: %v", name, err)
		}
		if !bytes.Equal(checkpointBytes(t, m), b) {
			t.Errorf("seed %s saves other bytes", name)
		}
	}
	if _, err := readCheckpoint(bytes.NewReader(fuzzSeed(t, "map-form"))); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 seed: got %v, want a version error", err)
	}
	for _, name := range []string{"observer-buckets-mismatch", "counter-and-gauge"} {
		if _, err := readCheckpoint(bytes.NewReader(fuzzSeed(t, name))); err == nil {
			t.Errorf("seed %s loaded", name)
		}
	}
}

// encodeState encodes st as a checkpoint.
func encodeState(t testing.TB, st MachineState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeCheckpoint(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// nameTwice lists st's observer counter cache.eager_writes a second time,
// as a gauge: a registry cannot hold both.
func nameTwice(st *MachineState) {
	ins := st.Obs.Instruments
	i := slices.IndexFunc(ins, func(in obs.InstrumentState) bool { return in.Name == "cache.eager_writes" })
	gauge := obs.InstrumentState{Name: ins[i].Name, Kind: "gauge", Value: 1}
	st.Obs.Instruments = slices.Insert(ins, i+1, gauge)
}

// TestCheckpointRejectsBadMaps: a checkpoint whose maps no machine holds
// — a NaN ratio, an observer instrument named twice — fails to load with
// an error, not a panic.
func TestCheckpointRejectsBadMaps(t *testing.T) {
	m := smallObservedMachine(t, false)
	cases := map[string]func(st *MachineState){
		"NaN ratio":              func(st *MachineState) { st.Ctrl.Stats.WritesByRatio[math.NaN()] = 1 },
		"NaN window-start ratio": func(st *MachineState) { st.WinStartStats.WritesByRatio[math.NaN()] = 1 },
		"counter and gauge":      nameTwice,
		"instrument twice": func(st *MachineState) {
			st.Obs.Instruments = append(st.Obs.Instruments, st.Obs.Instruments[len(st.Obs.Instruments)-1])
		},
	}
	for name, corrupt := range cases {
		st := m.Snapshot()
		corrupt(&st)
		if _, err := readCheckpoint(bytes.NewReader(encodeState(t, st))); err == nil {
			t.Errorf("%s: checkpoint loaded", name)
		}
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint reader: every
// input loads or returns an error, never panics, and a machine that loads
// saves the same bytes twice and again after a round trip through them.
// The seeds (testdata/fuzz/FuzzLoadCheckpoint) are checkpoints of
// smallObservedMachine with and without the DRAM tier, the same with
// crafted observer states, and a version-1 checkpoint (see
// TestCheckpointSeeds).
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint"))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := readCheckpoint(bytes.NewReader(b))
		if err != nil {
			return
		}
		var first, again bytes.Buffer
		if err := writeCheckpoint(&first, m); err != nil {
			t.Fatalf("a loaded machine fails to save: %v", err)
		}
		if err := writeCheckpoint(&again, m); err != nil || !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("two saves of a loaded machine differ (%v)", err)
		}
		r, err := readCheckpoint(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a saved checkpoint fails to load: %v", err)
		}
		if b2 := checkpointBytes(t, r); !bytes.Equal(first.Bytes(), b2) {
			t.Fatalf("a reloaded machine saves other bytes")
		}
	})
}
