package experiments

import (
	"context"
	"errors"
	"fmt"

	"mct/internal/core"
	"mct/internal/ml"
	"mct/internal/retention"
)

// RetentionExtensionResult demonstrates the generality claim of §4.4 on
// the write-latency-vs-retention technique (Table 1): the same sampling +
// learning + constrained-optimization pipeline picks a near-ideal
// configuration of a completely different NVM technique.
type RetentionExtensionResult struct {
	Benchmark string
	// Ideal from the (small) full sweep; Learned from a gboost model
	// trained on a subset of samples.
	Ideal       retention.Config
	IdealM      retention.Metrics
	Learned     retention.Config
	LearnedM    retention.Metrics
	SamplesUsed int
	SpaceSize   int
	// OfIdealThroughput = learned throughput / ideal throughput.
	OfIdealThroughput float64
}

// RetentionExtension runs the MCT pipeline on the retention-technique
// space: brute-force the small space for the ideal, then show the learner
// reaching a near-ideal choice from one third of the measurements.
func RetentionExtension(ctx context.Context, benchmarks []string, lifetimeTarget float64, opt Options) ([]RetentionExtensionResult, *Report, error) {
	if len(benchmarks) == 0 {
		return nil, nil, errors.New("experiments: RetentionExtension: no benchmarks")
	}
	p := retention.DefaultParams()
	// Only a-priori-valid configurations (scrub interval within the
	// device's retention at that ratio) enter the space, as a real
	// controller designer would enforce.
	var space []retention.Config
	for _, c := range retention.Space(p) {
		if c.WriteRatio >= 1 || float64(c.ScrubIntervalCycles) <= p.RetentionCycles(c.WriteRatio) {
			space = append(space, c)
		}
	}

	obj := core.Objective{
		Constraints:      []core.Constraint{{Metric: core.MetricLifetime, Min: lifetimeTarget}},
		RelativeIPCFloor: 0.95, // throughput plays the IPC role
		Optimize:         core.MetricEnergy,
	}

	accesses := opt.Accesses * 10
	if accesses < 200_000 {
		accesses = 200_000
	}

	var results []RetentionExtensionResult
	tbl := Table{
		Title:  fmt.Sprintf("Extension (Table 1): MCT pipeline on write-latency-vs-retention (lifetime ≥ %gy)", lifetimeTarget),
		Header: []string{"benchmark", "ideal (ratio,scrub)", "learned (ratio,scrub)", "ideal tput", "learned tput", "of-ideal"},
	}
	for _, bench := range benchmarks {
		// Full sweep (the space is small enough to brute-force — the
		// point is the learner, not the saved hours here).
		measured := make([]retention.Metrics, len(space))
		preds := make([][3]float64, len(space))
		for i, c := range space {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			m, err := retention.Simulate(bench, accesses, c, p, opt.Seed)
			if err != nil {
				return nil, nil, err
			}
			measured[i] = m
			preds[i] = m.Vector()
		}
		idealPos, _ := core.SelectOptimal(preds, obj)

		// Learned: sample every third configuration, fit one gboost per
		// objective on the samples, predict the rest, select.
		var sampleIdx []int
		for i := 0; i < len(space); i += 3 {
			sampleIdx = append(sampleIdx, i)
		}
		X := make([][]float64, len(sampleIdx))
		var ys [3][]float64
		for t := range ys {
			ys[t] = make([]float64, len(sampleIdx))
		}
		for i, si := range sampleIdx {
			X[i] = space[si].Vector()
			v := measured[si].Vector()
			for t := 0; t < 3; t++ {
				ys[t][i] = v[t]
			}
		}
		predAll := make([][3]float64, len(space))
		for t := 0; t < 3; t++ {
			gb := ml.NewGBoost()
			if err := gb.Fit(X, ys[t]); err != nil {
				return nil, nil, err
			}
			for i, c := range space {
				predAll[i][t] = gb.Predict(c.Vector())
			}
		}
		learnedPos, _ := core.SelectOptimal(predAll, obj)

		r := RetentionExtensionResult{
			Benchmark:   bench,
			Ideal:       space[idealPos],
			IdealM:      measured[idealPos],
			Learned:     space[learnedPos],
			LearnedM:    measured[learnedPos],
			SamplesUsed: len(sampleIdx),
			SpaceSize:   len(space),
		}
		if r.IdealM.Throughput > 0 {
			r.OfIdealThroughput = r.LearnedM.Throughput / r.IdealM.Throughput
		}
		results = append(results, r)
		tbl.AddRow(bench,
			fmt.Sprintf("%.2f/%d", r.Ideal.WriteRatio, r.Ideal.ScrubIntervalCycles),
			fmt.Sprintf("%.2f/%d", r.Learned.WriteRatio, r.Learned.ScrubIntervalCycles),
			f4(r.IdealM.Throughput), f4(r.LearnedM.Throughput), f3(r.OfIdealThroughput))
		emitf(opt, "extension-retention", bench, "extension-retention: %s done", bench)
	}
	rep := &Report{ID: "extension-retention", Tables: []Table{tbl}}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("same pipeline (sampling → gboost → constrained optimization) on a different technique family; %d of %d configurations sampled", results[0].SamplesUsed, results[0].SpaceSize))
	return results, rep, nil
}
