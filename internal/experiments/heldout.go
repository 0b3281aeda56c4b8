package experiments

import (
	"math"
	"math/rand"
	"sort"

	"mct/internal/ml"
	"mct/internal/stats"
)

// heldOutR2 fits p on the rows of (X, y) listed in train and returns its R²
// on every other row, in row order — the paper's accuracy measurement:
// learn from n sampled configurations, predict the rest of the space.
func heldOutR2(p ml.Predictor, X [][]float64, y []float64, train []int) (float64, error) {
	trX := make([][]float64, len(train))
	trY := make([]float64, len(train))
	inTrain := make([]bool, len(X))
	for i, r := range train {
		trX[i], trY[i] = X[r], y[r]
		inTrain[r] = true
	}
	if err := p.Fit(trX, trY); err != nil {
		return 0, err
	}
	var pred, want []float64
	for i := range X {
		if !inTrain[i] {
			pred = append(pred, p.Predict(X[i]))
			want = append(want, y[i])
		}
	}
	return stats.R2(pred, want), nil
}

// meanHeldOutR2 averages heldOutR2 over trials random training subsets of
// min(samples, len(X)) rows. Each trial draws its permutation from rng
// before building its model, so builders that draw from the same stream
// see a fixed sequence.
func meanHeldOutR2(newModel func() (ml.Predictor, error), X [][]float64, y []float64, samples, trials int, rng *rand.Rand) (float64, error) {
	n := min(samples, len(X))
	var acc float64
	for trial := 0; trial < trials; trial++ {
		train := rng.Perm(len(X))[:n]
		p, err := newModel()
		if err != nil {
			return 0, err
		}
		r2, err := heldOutR2(p, X, y, train)
		if err != nil {
			return 0, err
		}
		acc += r2 / float64(trials)
	}
	return acc, nil
}

// rankCoefficients returns the indices of w's nonzero weights that keep
// accepts (nil keeps every one), largest magnitude first.
func rankCoefficients(w []float64, keep func(j int) bool) []int {
	var idx []int
	for j, v := range w {
		if v != 0 && (keep == nil || keep(j)) {
			idx = append(idx, j)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return math.Abs(w[idx[a]]) > math.Abs(w[idx[b]]) })
	return idx
}
