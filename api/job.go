package api

import "fmt"

// Job kinds: what a submitted job asks the server to compute.
const (
	// KindEvaluate runs one configuration on one benchmark for a fixed
	// instruction budget and returns its Metrics. Long evaluations are
	// checkpointed between instruction chunks, so a killed server resumes
	// mid-run.
	KindEvaluate = "evaluate"
	// KindSweep evaluates a strided slice of the configuration space on one
	// prepared benchmark and returns a SweepResult. The warm machine and
	// completed chunks are persisted, so a resume recomputes only the tail.
	KindSweep = "sweep"
	// KindExperiment regenerates one paper table/figure and returns an
	// ExperimentReport. Resume granularity is the on-disk sweep cache.
	KindExperiment = "experiment"
)

// Job states, in lifecycle order.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobSpec is the wire form of a job submission: one kind plus the fields
// that kind reads (Validate rejects specs missing them). The same spec runs
// identically through the daemon queue and the mct CLI's -job mode — that
// equivalence is what CI's serve-smoke cmp checks.
type JobSpec struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`

	// Benchmark names the trace generator (evaluate, sweep).
	Benchmark string `json:"benchmark,omitempty"`

	// Evaluate: the configuration under test, the warmup length in accesses
	// (0 = the simulator default), and the measured instruction budget.
	Config         *Config `json:"config,omitempty"`
	WarmupAccesses int     `json:"warmup_accesses,omitempty"`
	Insts          uint64  `json:"insts,omitempty"`

	// Sweep: accesses measured per configuration and the stride over the
	// enumerated configuration space (1 = every configuration).
	Accesses int `json:"accesses,omitempty"`
	Stride   int `json:"stride,omitempty"`

	// Experiment: the experiment ID (see mct.Experiments) and whether to run
	// the reduced-fidelity quick variant.
	Experiment string `json:"experiment,omitempty"`
	Quick      bool   `json:"quick,omitempty"`

	// Hybrid hierarchy: interpose the DRAM cache tier, with an optional
	// promotion threshold override (0 = tier default).
	DRAMCache            bool `json:"dram_cache,omitempty"`
	DRAMPromoteThreshold int  `json:"dram_promote_threshold,omitempty"`
}

// Validate checks version, kind, and the kind's required fields. It does not
// resolve names (benchmark, experiment) — those fail at execution with the
// registry's own error.
func (s JobSpec) Validate() error {
	if s.V != Version {
		return fmt.Errorf("api: job spec has schema version %d; this decoder reads version %d", s.V, Version)
	}
	switch s.Kind {
	case KindEvaluate:
		if s.Benchmark == "" {
			return fmt.Errorf("api: evaluate job: missing benchmark")
		}
		if s.Config == nil {
			return fmt.Errorf("api: evaluate job: missing config")
		}
		if _, err := s.Config.Config(); err != nil {
			return err
		}
		if s.Insts == 0 {
			return fmt.Errorf("api: evaluate job: missing insts")
		}
		if s.WarmupAccesses < 0 {
			return fmt.Errorf("api: evaluate job: negative warmup_accesses %d", s.WarmupAccesses)
		}
	case KindSweep:
		if s.Benchmark == "" {
			return fmt.Errorf("api: sweep job: missing benchmark")
		}
		if s.Accesses <= 0 {
			return fmt.Errorf("api: sweep job: missing accesses")
		}
		if s.Stride < 0 {
			return fmt.Errorf("api: sweep job: negative stride %d", s.Stride)
		}
	case KindExperiment:
		if s.Experiment == "" {
			return fmt.Errorf("api: experiment job: missing experiment ID")
		}
	case "":
		return fmt.Errorf("api: job spec: missing kind")
	default:
		return fmt.Errorf("api: job spec: unknown kind %q", s.Kind)
	}
	return nil
}

// DecodeJobSpec strictly decodes and validates a JobSpec document.
func DecodeJobSpec(data []byte) (JobSpec, error) {
	var s JobSpec
	if err := decodeStrict(data, &s, "job spec"); err != nil {
		return JobSpec{}, err
	}
	if err := s.Validate(); err != nil {
		return JobSpec{}, err
	}
	return s, nil
}

// JobStatus is the wire form of one job's observable state, as returned by
// GET /v1/jobs/{id} and carried in SSE status frames.
type JobStatus struct {
	V      int    `json:"v"`
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Client string `json:"client,omitempty"`
	State  string `json:"state"`

	// Done/Total report progress in the job kind's own unit — instructions
	// for evaluate, configurations for sweep, sweep points for experiment.
	Done  int `json:"done"`
	Total int `json:"total"`

	// Resumes counts how many times a server restart re-adopted this job.
	Resumes int `json:"resumes,omitempty"`

	// Error is set when State is "failed".
	Error string `json:"error,omitempty"`

	// ArtifactBytes is the artifact document's size once State is "done".
	ArtifactBytes int `json:"artifact_bytes,omitempty"`
}

// DecodeJobStatus strictly decodes a JobStatus document.
func DecodeJobStatus(data []byte) (JobStatus, error) {
	var st JobStatus
	if err := decodeStrict(data, &st, "job status"); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// JobList is the wire form of GET /v1/jobs: every job the server knows, in
// submission order.
type JobList struct {
	V    int         `json:"v"`
	Jobs []JobStatus `json:"jobs"`
}

// DecodeJobList strictly decodes a JobList document.
func DecodeJobList(data []byte) (JobList, error) {
	var l JobList
	if err := decodeStrict(data, &l, "job list"); err != nil {
		return JobList{}, err
	}
	return l, nil
}
