package sim

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mct/internal/config"
	"mct/internal/obs"
	"mct/internal/trace"
)

// smallObservedMachine is an observed lbm machine under the static
// baseline on a small LLC and four banks, so that its checkpoint stays a
// few kilobytes. Its controller has issued writes at two ratios or more.
func smallObservedMachine(t testing.TB) *Machine {
	t.Helper()
	opt := DefaultOptions()
	opt.CacheBytes, opt.CacheWays = 8<<10, 4
	opt.Params.Banks = 4
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

// mapFormCheckpoint encodes m's checkpoint as SaveCheckpoint did before
// the pair form: the maps in the state and no Maps field.
func mapFormCheckpoint(t testing.TB, m *Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	env := checkpointEnvelope{Magic: checkpointMagic, Version: checkpointVersion, State: m.Snapshot()}
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	m := smallObservedMachine(t)
	want := checkpointBytes(t, m)
	for i := 1; i < 20; i++ {
		if got := checkpointBytes(t, m); !bytes.Equal(got, want) {
			t.Fatalf("checkpoint %d of one state differs from the first", i)
		}
	}
}

// TestCheckpointMapFormLoads: a checkpoint in the map form written before
// the pair form, and one in the pair form, both restore to the machine's
// Snapshot, and the map-form seed of FuzzLoadCheckpoint still loads.
func TestCheckpointMapFormLoads(t *testing.T) {
	m := smallObservedMachine(t)
	want := m.Snapshot()
	for name, b := range map[string][]byte{"map form": mapFormCheckpoint(t, m), "pair form": checkpointBytes(t, m)} {
		r, err := readCheckpoint(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: restored snapshot differs\n got: %+v\nwant: %+v", name, got, want)
		}
	}
	for _, seed := range []string{"map-form", "pair-form"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadCheckpoint", seed))
		if err != nil {
			t.Fatal(err)
		}
		_, body, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(body, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("seed %s: %v", seed, err)
		}
		if _, err := readCheckpoint(strings.NewReader(b)); err != nil {
			t.Errorf("seed %s does not load: %v", seed, err)
		}
	}
}

// TestCheckpointRejectsBadMaps: a pair form with a NaN or duplicate key,
// a checkpoint carrying its maps in both forms, and observer values
// without an observer fail to load.
func TestCheckpointRejectsBadMaps(t *testing.T) {
	m := smallObservedMachine(t)
	cases := map[string]func(env *checkpointEnvelope){
		"NaN ratio": func(env *checkpointEnvelope) {
			env.Maps.WritesByRatio = append(env.Maps.WritesByRatio, pair[float64, uint64]{math.NaN(), 1})
		},
		"duplicate ratio": func(env *checkpointEnvelope) {
			env.Maps.WritesByRatio = append(env.Maps.WritesByRatio, env.Maps.WritesByRatio[0])
		},
		"duplicate counter": func(env *checkpointEnvelope) {
			env.Maps.Counters = append(env.Maps.Counters, env.Maps.Counters[0])
		},
		"both forms": func(env *checkpointEnvelope) {
			env.State.Ctrl.Stats.WritesByRatio = map[float64]uint64{1: 1}
		},
		"observer values without an observer": func(env *checkpointEnvelope) {
			env.State.Obs = nil
		},
	}
	for name, corrupt := range cases {
		env := checkpointEnvelope{Magic: checkpointMagic, Version: checkpointVersion, State: m.Snapshot()}
		env.Maps = packMaps(&env.State)
		corrupt(&env)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(env); err != nil {
			t.Fatal(err)
		}
		if _, err := readCheckpoint(&buf); err == nil {
			t.Errorf("%s: checkpoint loaded", name)
		}
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint reader: every
// input loads or returns an error, never panics, and a machine that loads
// saves the same bytes twice and again after a round trip through them.
// The seeds (testdata/fuzz/FuzzLoadCheckpoint) are a checkpoint of
// smallObservedMachine in the pair form and in the map form.
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
