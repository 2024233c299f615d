package softmax

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/arch"
)

// refObjective is the per-example objective training used before runs of
// shared feature vectors were scored once: scores, log-partition and
// probabilities recomputed for every example, gradient accumulated class
// by class. The run-deduplicated objective must reproduce its bits.
func refObjective(m *Model, examples []Example, lambda float64, grad, scores []float64) float64 {
	for i := range grad {
		grad[i] = 0
	}
	f := 0.0
	for _, ex := range examples {
		m.Scores(ex.X, scores)
		maxS := math.Inf(-1)
		for _, v := range scores {
			if v > maxS {
				maxS = v
			}
		}
		logZ := 0.0
		for _, v := range scores {
			logZ += math.Exp(v - maxS)
		}
		logZ = math.Log(logZ) + maxS
		f -= scores[ex.Y] - logZ
		for k := range scores {
			p := math.Exp(scores[k] - logZ)
			coeff := p
			if k == ex.Y {
				coeff -= 1
			}
			if coeff == 0 {
				continue
			}
			for i, xi := range ex.X {
				if xi != 0 {
					grad[i*m.K+k] += coeff * xi
				}
			}
		}
	}
	for i, w := range m.W {
		f += lambda * w * w
		grad[i] += 2 * lambda * w
	}
	return f
}

// refObjectiveAt is the per-example line-search objective, the reference
// for objective.evalAt.
func refObjectiveAt(w []float64, m *Model, examples []Example, lambda float64, scores []float64) float64 {
	saved := m.W
	m.W = w
	f := 0.0
	for _, ex := range examples {
		m.Scores(ex.X, scores)
		maxS := math.Inf(-1)
		for _, v := range scores {
			if v > maxS {
				maxS = v
			}
		}
		logZ := 0.0
		for _, v := range scores {
			logZ += math.Exp(v - maxS)
		}
		logZ = math.Log(logZ) + maxS
		f -= scores[ex.Y] - logZ
	}
	for _, wi := range w {
		f += lambda * wi * wi
	}
	m.W = saved
	return f
}

// phaseLike builds examples the way core.TrainPredictor does: each
// "phase" contributes 1-4 consecutive examples with different labels that
// share one feature vector. Some phases reuse the previous phase's vector
// (a run spanning phases, half the time as an equal copy rather than the
// same slice), some reuse an earlier non-adjacent one, and a quarter of
// the features are exact zeros.
func phaseLike(rng *rand.Rand, d, k, phases int) []Example {
	var exs []Example
	var seen [][]float64
	for p := 0; p < phases; p++ {
		var x []float64
		switch {
		case len(seen) > 0 && rng.IntN(5) == 0:
			x = seen[len(seen)-1]
			if rng.IntN(2) == 0 {
				x = append([]float64(nil), x...)
			}
		case len(seen) > 2 && rng.IntN(5) == 0:
			x = seen[rng.IntN(len(seen)-1)]
		default:
			x = make([]float64, d)
			for i := range x {
				if rng.IntN(4) != 0 {
					x[i] = rng.Float64()
				}
			}
			x[d-1] = 1
		}
		seen = append(seen, x)
		for g := 1 + rng.IntN(4); g > 0; g-- {
			exs = append(exs, Example{X: x, Y: rng.IntN(k)})
		}
	}
	return exs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// longRuns builds examples in runs of 5-12 consecutive examples sharing
// one feature vector, half the features exact zeros.
func longRuns(rng *rand.Rand, d, k, runs int) []Example {
	var exs []Example
	for r := 0; r < runs; r++ {
		x := make([]float64, d)
		for i := range x {
			if rng.IntN(2) == 0 {
				x[i] = rng.Float64()*2 - 1
			}
		}
		for g := 5 + rng.IntN(8); g > 0; g-- {
			exs = append(exs, Example{X: x, Y: rng.IntN(k)})
		}
	}
	return exs
}

// singletons builds examples whose feature vectors all differ, so every
// run holds exactly one example.
func singletons(rng *rand.Rand, d, k, n int) []Example {
	exs := make([]Example, n)
	for e := range exs {
		x := make([]float64, d)
		for i := range x {
			if rng.IntN(3) != 0 {
				x[i] = rng.Float64()
			}
		}
		x[0] = float64(e + 1) // distinct from every neighbour
		exs[e] = Example{X: x, Y: rng.IntN(k)}
	}
	return exs
}

// TestObjectiveMatchesReference pins the run-deduplicated, register-blocked
// objective to the per-example reference bit for bit: loss and every
// gradient entry at the current weights, the loss at a line-search trial
// point, and the loss and gradient at that trial point from the scores
// the line search left behind. The class counts hit every remainder of
// the four-wide class blocks.
func TestObjectiveMatchesReference(t *testing.T) {
	cases := []struct {
		name      string
		d, k, n   int
		weightMag float64
		gen       func(rng *rand.Rand, d, k, n int) []Example
	}{
		{"small", 6, 4, 30, 1, phaseLike},
		{"wide", 40, 9, 60, 2, phaseLike},
		// Large weights drive some probabilities to exactly 0 or 1, so the
		// zero-coefficient skip is exercised.
		{"saturated", 8, 5, 40, 2000, phaseLike},
		{"saturated-k8", 12, 8, 40, 2000, phaseLike},
		{"single-class", 5, 1, 20, 1, phaseLike},
		{"k3", 10, 3, 40, 1, phaseLike},
		{"k17", 30, 17, 50, 1, phaseLike},
		{"long-runs-k8", 20, 8, 12, 1, longRuns},
		{"long-runs-k17", 20, 17, 8, 1, longRuns},
		{"singletons-k5", 16, 5, 40, 1, singletons},
		{"singletons-k4", 16, 4, 40, 1, singletons},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(ci+1), 0x0b1ec7))
			exs := tc.gen(rng, tc.d, tc.k, tc.n)
			// An all-zero vector, alone and in a run.
			zero := make([]float64, tc.d)
			exs = append(exs, Example{X: zero, Y: 0}, Example{X: zero, Y: tc.k - 1})
			m, err := NewModel(tc.d, tc.k, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range m.W {
				m.W[i] = tc.weightMag * (rng.Float64()*2 - 1)
			}
			trial := make([]float64, len(m.W))
			for i := range trial {
				trial[i] = m.W[i] + 0.3*(rng.Float64()*2-1)
			}
			const lambda = 0.5

			wantGrad := make([]float64, len(m.W))
			wantF := refObjective(m, exs, lambda, wantGrad, make([]float64, tc.k))
			wantAt := refObjectiveAt(trial, m, exs, lambda, make([]float64, tc.k))
			tm := &Model{D: tc.d, K: tc.k, W: trial}
			wantTrialGrad := make([]float64, len(m.W))
			wantTrialF := refObjective(tm, exs, lambda, wantTrialGrad, make([]float64, tc.k))

			ob := newObjective(exs, tc.k, lambda)
			if len(ob.runs) >= len(exs) {
				t.Fatalf("%d runs for %d examples: no run shares a feature vector", len(ob.runs), len(exs))
			}
			grad := make([]float64, len(m.W))
			if f := ob.eval(m.W, grad, true); !sameBits(f, wantF) {
				t.Errorf("loss %v, reference %v", f, wantF)
			}
			for i := range grad {
				if !sameBits(grad[i], wantGrad[i]) {
					t.Fatalf("grad[%d] = %v, reference %v", i, grad[i], wantGrad[i])
				}
			}
			if f := ob.evalAt(trial); !sameBits(f, wantAt) {
				t.Errorf("line-search loss %v, reference %v", f, wantAt)
			}
			// The accepted-trial path: eval reuses evalAt's scores.
			if f := ob.eval(trial, grad, false); !sameBits(f, wantTrialF) {
				t.Errorf("reused-score loss %v, reference %v", f, wantTrialF)
			}
			for i := range grad {
				if !sameBits(grad[i], wantTrialGrad[i]) {
					t.Fatalf("reused-score grad[%d] = %v, reference %v", i, grad[i], wantTrialGrad[i])
				}
			}
		})
	}
}

// TestTrainScoreReuseBitIdentical requires training with the accepted
// trial's scores reused to produce the Float64bits-identical weights of
// training that rescores them.
func TestTrainScoreReuseBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		d, k, n int
		gen     func(rng *rand.Rand, d, k, n int) []Example
	}{
		{"phase-k8", 64, 8, 60, phaseLike},
		{"phase-k17", 40, 17, 40, phaseLike},
		{"long-runs-k3", 30, 3, 10, longRuns},
		{"singletons-k5", 20, 5, 50, singletons},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exs := tc.gen(rand.New(rand.NewPCG(9, uint64(tc.k))), tc.d, tc.k, tc.n)
			opts := DefaultOptions()
			reused, err := train(tc.d, tc.k, exs, opts, true)
			if err != nil {
				t.Fatal(err)
			}
			rescored, err := train(tc.d, tc.k, exs, opts, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := range reused.W {
				if !sameBits(reused.W[i], rescored.W[i]) {
					t.Fatalf("W[%d] = %v with score reuse, %v without", i, reused.W[i], rescored.W[i])
				}
			}
		})
	}
}

// TestObjectiveRuns checks run detection: consecutive element-wise equal
// vectors form one run whether or not they share a slice, and a repeat
// that is not adjacent starts a new run.
func TestObjectiveRuns(t *testing.T) {
	a := []float64{1, 0, 2}
	aCopy := []float64{1, 0, 2}
	b := []float64{1, 0, 3}
	exs := []Example{{X: a}, {X: a}, {X: aCopy}, {X: b}, {X: a}, {X: b}, {X: b}}
	var got []int
	for _, run := range newObjective(exs, 1, 0.5).runs {
		got = append(got, len(run.ys))
	}
	want := []int{3, 1, 1, 2}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("run lengths %v, want %v", got, want)
	}
}

// BenchmarkTrain times one training on a phase-shaped problem: 120
// phases of a 64-feature vector with 1-4 good labels each over 8 classes.
func BenchmarkTrain(b *testing.B) {
	const d, k = 64, 8
	exs := phaseLike(rand.New(rand.NewPCG(5, 5)), d, k, 120)
	opts := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(d, k, exs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainFold times the fourteen per-parameter trainings of one
// pipeline-shaped LOOCV fold on one core: 14 training phases, each a run
// of 1-6 examples (3.5 on average) sharing a D=437 feature vector with
// 44% non-zero features, trained once per design-space parameter with
// that parameter's domain size as K.
func BenchmarkTrainFold(b *testing.B) {
	const d, phases = 437, 14
	rng := rand.New(rand.NewPCG(14, 437))
	xs := make([][]float64, phases)
	for p := range xs {
		x := make([]float64, d)
		for i := range x {
			if rng.Float64() < 0.44 {
				x[i] = rng.Float64()
			}
		}
		xs[p] = x
	}
	type problem struct {
		k   int
		exs []Example
	}
	var probs []problem
	for p := arch.Param(0); p < arch.NumParams; p++ {
		k := arch.DomainSize(p)
		var exs []Example
		for _, x := range xs {
			for g := 1 + rng.IntN(6); g > 0; g-- {
				exs = append(exs, Example{X: x, Y: rng.IntN(k)})
			}
		}
		probs = append(probs, problem{k, exs})
	}
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pr := range probs {
			if _, err := Train(d, pr.k, pr.exs, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
