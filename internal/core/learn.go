package core

import (
	"fmt"

	"mct/internal/config"
	"mct/internal/ml"
	"mct/internal/sim"
)

// TradeoffModel bundles one predictor per objective, fitted on
// baseline-normalized targets (§4.4 "Normalization"): each model learns how
// a configuration differs from the baseline, and predictions are
// denormalized by the baseline's measured behaviour.
type TradeoffModel struct {
	preds    [3]ml.Predictor
	baseline [3]float64
	fitted   bool
}

// NewTradeoffModel constructs the three predictors for a model family name
// (see ml.New for the accepted names).
func NewTradeoffModel(modelName string) (*TradeoffModel, error) {
	tm := &TradeoffModel{}
	for i := range tm.preds {
		p, err := ml.New(modelName)
		if err != nil {
			return nil, err
		}
		tm.preds[i] = p
	}
	return tm, nil
}

// NewTradeoffModelWith wraps three caller-supplied predictors (used to plug
// in offline or hierarchical-Bayes models, which need offline data).
func NewTradeoffModelWith(ipc, lifetime, energy ml.Predictor) *TradeoffModel {
	return &TradeoffModel{preds: [3]ml.Predictor{ipc, lifetime, energy}}
}

// Fit trains the three predictors on sample configurations and their
// measured metrics, normalizing every target to the baseline metrics.
// baseline must have strictly positive IPC, lifetime and energy.
func (tm *TradeoffModel) Fit(samples []config.Config, measured []sim.Metrics, baseline sim.Metrics) error {
	if len(samples) == 0 || len(samples) != len(measured) {
		return fmt.Errorf("core: %d samples vs %d measurements", len(samples), len(measured))
	}
	b := [3]float64{baseline.IPC, baseline.LifetimeYears, baseline.EnergyJ}
	for i, v := range b {
		if v <= 0 {
			return fmt.Errorf("core: non-positive baseline %v = %g", Metric(i), v)
		}
	}
	X := make([][]float64, len(samples))
	for i, c := range samples {
		X[i] = c.Vector()
	}
	var ys [3][]float64
	for m := 0; m < 3; m++ {
		ys[m] = make([]float64, len(measured))
	}
	for i, mt := range measured {
		ys[0][i] = mt.IPC / b[0]
		ys[1][i] = mt.LifetimeYears / b[1]
		ys[2][i] = mt.EnergyJ / b[2]
	}
	for m := 0; m < 3; m++ {
		if err := tm.preds[m].Fit(X, ys[m]); err != nil {
			return fmt.Errorf("core: fitting %v model: %w", Metric(m), err)
		}
	}
	tm.baseline = b
	tm.fitted = true
	return nil
}

// Predict returns the denormalized [IPC, lifetime, energy] prediction for
// one configuration.
func (tm *TradeoffModel) Predict(c config.Config) [3]float64 {
	x := c.Vector()
	var out [3]float64
	for m := 0; m < 3; m++ {
		out[m] = tm.preds[m].Predict(x) * tm.baseline[m]
	}
	return out
}

// PredictAll predicts every configuration of a space.
func (tm *TradeoffModel) PredictAll(space *config.Space) [][3]float64 {
	out := make([][3]float64, space.Len())
	for i := 0; i < space.Len(); i++ {
		out[i] = tm.Predict(space.At(i))
	}
	return out
}
