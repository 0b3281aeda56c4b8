package ml

import "mct/internal/rng"

// Gradient-boosting hyperparameters of MCT's predictor.
const (
	gbTrees     = 150 // boosting rounds
	gbDepth     = 3   // max tree depth
	gbShrinkage = 0.1 // learning rate
	gbSubsample = 0.8 // stochastic row subsampling fraction (Friedman 2002)
	gbMinLeaf   = 2
	// gbSeed seeds the subsampling stream each Fit derives afresh, so
	// refits on the same data reproduce identical ensembles.
	gbSeed = 7
)

// GBoost is stochastic gradient boosting with least-squares loss over
// regression trees (§4.3: "a state-of-art boosting algorithm for learning
// regression models"). For squared loss, each round fits a tree to the
// current residuals.
type GBoost struct {
	trees  []*regTree
	bias   float64
	fitted bool
}

// NewGBoost returns a gradient-boosting predictor.
func NewGBoost() *GBoost { return &GBoost{} }

// Name implements Predictor.
func (g *GBoost) Name() string { return NameGBoost }

// Fit implements Predictor.
func (g *GBoost) Fit(X [][]float64, y []float64) error {
	if err := checkData(X, y); err != nil {
		return err
	}
	n := len(X)
	r := rng.New(gbSeed)

	var bias float64
	for _, v := range y {
		bias += v
	}
	bias /= float64(n)

	resid := make([]float64, n)
	for i, v := range y {
		resid[i] = v - bias
	}

	topt := treeOptions{maxDepth: gbDepth, minLeaf: gbMinLeaf}
	trees := make([]*regTree, 0, gbTrees)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}

	sampleSize := int(gbSubsample * float64(n))
	if sampleSize < 2 {
		sampleSize = n
	}

	for round := 0; round < gbTrees; round++ {
		idx := all
		if sampleSize < n {
			perm := r.Perm(n)
			idx = perm[:sampleSize]
		}
		t := fitTree(X, resid, idx, topt, 0)
		trees = append(trees, t)
		for i := 0; i < n; i++ {
			resid[i] -= gbShrinkage * t.predict(X[i])
		}
	}
	g.trees = trees
	g.bias = bias
	g.fitted = true
	return nil
}

// Predict implements Predictor.
func (g *GBoost) Predict(x []float64) float64 {
	if !g.fitted {
		return 0
	}
	s := g.bias
	for _, t := range g.trees {
		s += gbShrinkage * t.predict(x)
	}
	return s
}
