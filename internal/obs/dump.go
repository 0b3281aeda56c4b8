package obs

import (
	"encoding/json"
	"fmt"
	"math"
)

// histDump is the JSON form of one histogram.
type histDump struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
}

// dumpDoc is the JSON document shape of a registry dump. Maps marshal with
// sorted keys under encoding/json, which is what makes dumps byte-stable.
type dumpDoc struct {
	Counters   map[string]uint64   `json:"counters"`
	Gauges     map[string]float64  `json:"gauges"`
	Histograms map[string]histDump `json:"histograms"`
}

// dumpDoc builds the document, excluding volatile instruments unless
// includeVolatile is set. Non-finite gauge values are clamped to 0 so the
// document always marshals (encoding/json rejects NaN/Inf).
func (r *Registry) doc(includeVolatile bool) dumpDoc {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := dumpDoc{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]histDump{},
	}
	for name, in := range r.instruments {
		if in.volatile && !includeVolatile {
			continue
		}
		switch in.kind {
		case kindCounter:
			d.Counters[name] = in.counter.Value()
		case kindGauge:
			v := in.gauge.Value()
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			d.Gauges[name] = v
		case kindHistogram:
			d.Histograms[name] = histDump{
				Bounds: in.hist.Bounds(),
				Counts: in.hist.Counts(),
				Count:  in.hist.Count(),
			}
		}
	}
	return d
}

// DumpJSON renders the stable dump: every non-volatile instrument, sorted
// by name, indented, trailing newline. Two registries holding the same
// non-volatile values produce byte-identical dumps — this is the surface
// the determinism tests and the CI worker-count comparison diff.
func (r *Registry) DumpJSON() []byte {
	return marshalDoc(r.doc(false))
}

// DumpAllJSON renders the full dump including volatile (wall-clock /
// scheduling-dependent) instruments, the form a live endpoint such as
// mctd's /metrics serves. Not byte-stable across runs.
func (r *Registry) DumpAllJSON() []byte {
	return marshalDoc(r.doc(true))
}

func marshalDoc(d dumpDoc) []byte {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		// Unreachable: the document is maps of finite scalars.
		panic(fmt.Sprintf("obs: dump marshal: %v", err))
	}
	return append(b, '\n')
}
