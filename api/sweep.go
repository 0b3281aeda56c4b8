package api

import "fmt"

// SweepResult is the artifact of a sweep job: the metrics of every strided
// configuration, in configuration-space enumeration order. Indices[i] is the
// space index that produced Metrics[i], so a reader can rebuild the
// (configuration, metrics) pairs from config.Enumerate without the artifact
// repeating every configuration.
type SweepResult struct {
	V         int    `json:"v"`
	Benchmark string `json:"benchmark"`
	Accesses  int    `json:"accesses"`
	Stride    int    `json:"stride"`

	// SpaceSize is the full enumeration size the indices stride over,
	// recorded so a decoder can detect a space-grid drift.
	SpaceSize int `json:"space_size"`

	Indices []int     `json:"indices"`
	Metrics []Metrics `json:"metrics"`
}

// Validate checks the versions, of the result and of each of its metrics,
// and the indices/metrics pairing.
func (r SweepResult) Validate() error {
	if r.V != Version {
		return fmt.Errorf("api: sweep result has schema version %d; this decoder reads version %d", r.V, Version)
	}
	if len(r.Indices) != len(r.Metrics) {
		return fmt.Errorf("api: sweep result: %d indices but %d metrics", len(r.Indices), len(r.Metrics))
	}
	for i, m := range r.Metrics {
		if m.V != Version {
			return fmt.Errorf("api: sweep result: metrics %d has schema version %d; this decoder reads version %d", i, m.V, Version)
		}
	}
	return nil
}

// DecodeSweepResult strictly decodes and validates a SweepResult document:
// a sweep job's artifact, and the completed prefix of one that the job
// persists to resume from.
func DecodeSweepResult(data []byte) (SweepResult, error) {
	var r SweepResult
	if err := decodeStrict(data, &r, "sweep result"); err != nil {
		return SweepResult{}, err
	}
	if err := r.Validate(); err != nil {
		return SweepResult{}, err
	}
	return r, nil
}
