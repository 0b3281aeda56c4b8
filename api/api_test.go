package api

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mct/internal/config"
	"mct/internal/energy"
	"mct/internal/experiments"
	"mct/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files from current encodings")

// Fixture values exercise every wire field with non-zero, non-round floats so
// the goldens catch both field renames and float-formatting drift.

func fixtureConfig() Config {
	return FromConfig(config.Config{
		BankAware:          true,
		BankAwareThreshold: 3,
		EagerWritebacks:    true,
		EagerThreshold:     32,
		WearQuota:          true,
		WearQuotaTarget:    8,
		FastLatency:        1.25,
		SlowLatency:        3.5,
		FastCancellation:   false,
		SlowCancellation:   true,
	})
}

func fixtureMetrics() Metrics {
	return FromMetrics(sim.Metrics{
		Instructions:  123456789,
		CPUCycles:     2.468e8,
		IPC:           0.5002262,
		Seconds:       0.0823,
		LifetimeYears: 11.73,
		EnergyJ:       0.00912,
		Energy: energy.Breakdown{
			CPUDynamic:  0.0041,
			CPUStatic:   0.0012,
			NVMRead:     0.00071,
			NVMWrite:    0.0023,
			NVMStatic:   0.00031,
			DRAMDynamic: 0.00027,
			DRAMStatic:  0.00013,
		},
		MemReads:          55001,
		MemWrites:         17003,
		EagerWrites:       401,
		CancelledWrites:   77,
		ForcedWrites:      12,
		SlowWrites:        9000,
		FastWrites:        8003,
		QueueFullStalls:   5,
		LLCHitRate:        0.91,
		RowHitRate:        0.4403,
		DRAMHits:          1200,
		DRAMMisses:        340,
		DRAMWriteHits:     88,
		DRAMEagerAbsorbed: 31,
		DRAMPromotions:    12,
		DRAMWritebacks:    7,
		DRAMHitRate:       0.779,
		WearByBankDelta:   []float64{1.5, 0.25, 2.125, 0},
		WritesByRatio:     map[float64]uint64{1: 8003, 2.5: 4000, 3.5: 5000},
	})
}

func fixtureReport() ExperimentReport {
	return FromReport(&experiments.Report{
		ID: "table4",
		Tables: []experiments.Table{{
			Title:  "Sampled-point accuracy",
			Header: []string{"samples", "error"},
			Rows:   [][]string{{"77", "2.1%"}, {"120", "1.4%"}},
		}},
		Notes: []string{"quick fidelity"},
	})
}

func fixtureJobSpec() JobSpec {
	cfg := fixtureConfig()
	return JobSpec{
		V:              Version,
		Kind:           KindEvaluate,
		Benchmark:      "stream",
		Config:         &cfg,
		WarmupAccesses: 5000,
		Insts:          2_000_000,
	}
}

func fixtureJobStatus() JobStatus {
	return JobStatus{
		V:             Version,
		ID:            "j000007",
		Kind:          KindSweep,
		Client:        "ci",
		State:         StateDone,
		Done:          308,
		Total:         308,
		Resumes:       1,
		ArtifactBytes: 123456,
	}
}

func fixtureSweepResult() SweepResult {
	return SweepResult{
		V:         Version,
		Benchmark: "stream",
		Accesses:  20000,
		Stride:    100,
		SpaceSize: 308,
		Indices:   []int{0, 100, 200, 300},
		Metrics:   []Metrics{fixtureMetrics(), fixtureMetrics(), fixtureMetrics(), fixtureMetrics()},
	}
}

func fixtureEvent() Event {
	return Event{
		V:      Version,
		Scope:  "job",
		Item:   "stream",
		Kind:   "progress",
		Done:   64,
		Total:  308,
		Values: map[string]float64{"ipc": 0.51, "queue_depth": 3},
	}
}

// goldenDoc ties one document type's fixture to its golden file and decoder.
// decode re-decodes the golden bytes and returns the re-encoded result, so the
// test can assert Encode∘Decode is the identity on canonical documents.
type goldenDoc struct {
	name   string
	value  any
	decode func(data []byte) (any, error)
}

func goldenDocs() []goldenDoc {
	return []goldenDoc{
		{"config", fixtureConfig(), func(d []byte) (any, error) { return DecodeConfig(d) }},
		{"metrics", fixtureMetrics(), func(d []byte) (any, error) { return DecodeMetrics(d) }},
		{"report", fixtureReport(), func(d []byte) (any, error) { return DecodeReport(d) }},
		{"jobspec", fixtureJobSpec(), func(d []byte) (any, error) { return DecodeJobSpec(d) }},
		{"jobstatus", fixtureJobStatus(), func(d []byte) (any, error) { return DecodeJobStatus(d) }},
		{"sweep", fixtureSweepResult(), func(d []byte) (any, error) { return DecodeSweepResult(d) }},
		{"event", fixtureEvent(), func(d []byte) (any, error) { return DecodeEvent(d) }},
	}
}

// TestGoldenRoundTrip pins the wire format: each document's encoding must
// match its checked-in golden byte for byte, and decoding the golden and
// re-encoding must reproduce it exactly. A diff here is a wire-format change
// and needs a schema-version bump, not a golden refresh.
func TestGoldenRoundTrip(t *testing.T) {
	for _, d := range goldenDocs() {
		t.Run(d.name, func(t *testing.T) {
			path := filepath.Join("testdata", d.name+".golden.json")
			got := Encode(d.value)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding drifted from golden %s:\n--- golden ---\n%s--- got ---\n%s", path, want, got)
			}
			decoded, err := d.decode(want)
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			if re := Encode(decoded); !bytes.Equal(re, want) {
				t.Fatalf("decode∘encode not identity for %s:\n--- golden ---\n%s--- re-encoded ---\n%s", d.name, want, re)
			}
		})
	}
}

// TestUnknownFieldRejected injects a field no schema version defines into
// each golden document and requires every decoder to reject it: typos and
// newer-producer payloads must fail at the boundary.
func TestUnknownFieldRejected(t *testing.T) {
	for _, d := range goldenDocs() {
		t.Run(d.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", d.name+".golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			// Splice the bogus field right after the opening brace.
			mut := regexp.MustCompile(`\{`).ReplaceAllString(string(data), `{"bogus_field_xyz": 1,`)
			if _, err := d.decode([]byte(mut)); err == nil {
				t.Fatalf("decoder accepted an unknown field")
			} else if !strings.Contains(err.Error(), "bogus_field_xyz") {
				t.Fatalf("rejection does not name the unknown field: %v", err)
			}
		})
	}
}

// TestVersionSkew rewrites each golden's schema version and requires the
// decoder to fail loudly about the version — not about unknown fields, and
// never by silently reinterpreting the payload.
func TestVersionSkew(t *testing.T) {
	skewed := fmt.Sprintf(`"v": %d`, Version+1)
	for _, d := range goldenDocs() {
		t.Run(d.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", d.name+".golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			mut := strings.Replace(string(data), fmt.Sprintf(`"v": %d`, Version), skewed, 1)
			if mut == string(data) {
				t.Fatalf("golden has no top-level version field to skew")
			}
			_, err = d.decode([]byte(mut))
			if err == nil {
				t.Fatalf("decoder accepted a version-%d payload", Version+1)
			}
			if !strings.Contains(err.Error(), "version") {
				t.Fatalf("skew error does not mention the version: %v", err)
			}
		})
	}
}

// TestTrailingDataRejected: concatenated documents are not one document.
func TestTrailingDataRejected(t *testing.T) {
	data := Encode(fixtureConfig())
	if _, err := DecodeConfig(append(append([]byte(nil), data...), data...)); err == nil {
		t.Fatal("decoder accepted trailing data")
	}
}

// TestConverterRoundTrip checks the internal-type bridges: converting a model
// value to wire form and back must reproduce it exactly (including the
// float-keyed WritesByRatio map and the configuration's validated fields).
func TestConverterRoundTrip(t *testing.T) {
	cfg := config.StaticBaseline()
	back, err := FromConfig(cfg).Config()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cfg) {
		t.Fatalf("config round trip drifted:\n in: %+v\nout: %+v", cfg, back)
	}

	wm := fixtureMetrics()
	m, err := wm.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(FromMetrics(m), wm) {
		t.Fatalf("metrics round trip drifted")
	}

	rep := fixtureReport()
	r, err := rep.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(FromReport(r), rep) {
		t.Fatalf("report round trip drifted")
	}
}

// TestJobSpecValidate covers the per-kind required-field checks.
func TestJobSpecValidate(t *testing.T) {
	cfg := fixtureConfig()
	cases := []struct {
		name    string
		spec    JobSpec
		wantErr string
	}{
		{"evaluate ok", fixtureJobSpec(), ""},
		{"sweep ok", JobSpec{V: Version, Kind: KindSweep, Benchmark: "stream", Accesses: 1000, Stride: 7}, ""},
		{"experiment ok", JobSpec{V: Version, Kind: KindExperiment, Experiment: "table4", Quick: true}, ""},
		{"missing kind", JobSpec{V: Version}, "missing kind"},
		{"unknown kind", JobSpec{V: Version, Kind: "train"}, "unknown kind"},
		{"bad version", JobSpec{V: Version + 1, Kind: KindSweep, Benchmark: "b", Accesses: 1}, "schema version"},
		{"evaluate no benchmark", JobSpec{V: Version, Kind: KindEvaluate, Config: &cfg, Insts: 1}, "missing benchmark"},
		{"evaluate no config", JobSpec{V: Version, Kind: KindEvaluate, Benchmark: "b", Insts: 1}, "missing config"},
		{"evaluate no insts", JobSpec{V: Version, Kind: KindEvaluate, Benchmark: "b", Config: &cfg}, "missing insts"},
		{"evaluate negative warmup", JobSpec{V: Version, Kind: KindEvaluate, Benchmark: "b", Config: &cfg, Insts: 1, WarmupAccesses: -1}, "negative warmup_accesses"},
		{"sweep no accesses", JobSpec{V: Version, Kind: KindSweep, Benchmark: "b"}, "missing accesses"},
		{"sweep negative stride", JobSpec{V: Version, Kind: KindSweep, Benchmark: "b", Accesses: 1, Stride: -1}, "negative stride"},
		{"experiment no id", JobSpec{V: Version, Kind: KindExperiment}, "missing experiment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestSweepResultPairing: a sweep artifact with mismatched indices/metrics
// lengths must not decode.
func TestSweepResultPairing(t *testing.T) {
	r := fixtureSweepResult()
	r.Indices = r.Indices[:len(r.Indices)-1]
	if _, err := DecodeSweepResult(Encode(r)); err == nil {
		t.Fatal("decoder accepted mismatched indices/metrics")
	}
}

// FuzzDecodeSweepResult feeds arbitrary bytes to the one decoder of a
// sweep's results, which reads both the artifact and the prefix a sweep
// job resumes from (partial.json): every input decodes or returns an
// error, never panics, and a document that decodes re-encodes to bytes
// that decode and encode to themselves. The seeds
// (testdata/fuzz/FuzzDecodeSweepResult) are the golden artifact, a
// completed prefix, the same torn mid-metrics, a prefix in the job's
// former private form, a version-2 document, a metrics entry without its
// version and one with unpaired indices.
func FuzzDecodeSweepResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeSweepResult(b)
		if err != nil {
			return
		}
		if len(r.Indices) != len(r.Metrics) {
			t.Fatalf("decoded %d indices for %d metrics", len(r.Indices), len(r.Metrics))
		}
		first := Encode(r)
		again, err := DecodeSweepResult(first)
		if err != nil {
			t.Fatalf("a decoded result re-encodes to bytes that fail to decode: %v\n%s", err, first)
		}
		if re := Encode(again); !bytes.Equal(re, first) {
			t.Fatalf("encode∘decode not identity on an encoded result:\n%s\n%s", first, re)
		}
	})
}

// FuzzDecodeJobSpec feeds arbitrary bytes to the daemon's submission
// decoder, the HTTP trust boundary: every input decodes to a valid spec or
// returns an error, never panics, and a spec that decodes re-encodes to
// bytes that decode to the same spec and encode to themselves. The seeds
// (testdata/fuzz/FuzzDecodeJobSpec) are one spec of each kind, an unknown
// kind, a negative warmup_accesses, a version-2 spec and a spec followed
// by trailing data.
func FuzzDecodeJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeJobSpec(b)
		if err != nil {
			return
		}
		first := Encode(s)
		again, err := DecodeJobSpec(first)
		if err != nil {
			t.Fatalf("a decoded spec re-encodes to bytes that fail to decode: %v\n%s", err, first)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("decode∘encode changed the spec:\n%+v\n%+v", s, again)
		}
		if re := Encode(again); !bytes.Equal(re, first) {
			t.Fatalf("encode∘decode not identity on an encoded spec:\n%s\n%s", first, re)
		}
	})
}
