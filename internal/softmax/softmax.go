// Package softmax implements the paper's predictive model: a multinomial
// logistic regression (soft-max) classifier per microarchitectural
// parameter, trained off-line by regularised maximum likelihood with
// conjugate-gradient optimisation (Section IV).
//
// The model is deliberately generic — D input features, K classes — so the
// same code trains all fourteen per-parameter models. Prediction follows
// the paper's equation (8)-(9): a hard argmax over the linear scores,
// avoiding exponentiation at runtime, which is what makes the hardware
// implementation (a multiclass perceptron, §VIII) cheap.
package softmax

import (
	"errors"
	"fmt"
	"math"
)

// Example is one training observation: feature vector X (length D) and the
// index Y of a "good" class. Phases with several good configurations
// contribute several examples, implementing the paper's Ñ over
// within-5%-of-best configurations.
type Example struct {
	X []float64
	Y int
}

// Options control training.
type Options struct {
	// Lambda is the weight-norm regularisation strength; the paper uses
	// 0.5.
	Lambda float64
	// InitWeight is the deterministic initial value of every weight; the
	// paper uses 1.
	InitWeight float64
	// MaxIter bounds conjugate-gradient iterations.
	MaxIter int
	// Tol stops training when the gradient norm falls below it.
	Tol float64
}

// DefaultOptions returns the paper's training settings.
func DefaultOptions() Options {
	return Options{Lambda: 0.5, InitWeight: 1, MaxIter: 200, Tol: 1e-5}
}

// Model is a trained soft-max classifier: a D x K weight matrix, stored
// row-major by feature (W[i*K+k] is feature i's weight for class k).
type Model struct {
	D, K int
	W    []float64
}

// NewModel returns an untrained model with all weights set to init.
func NewModel(d, k int, init float64) (*Model, error) {
	if d <= 0 || k <= 0 {
		return nil, fmt.Errorf("softmax: invalid shape D=%d K=%d", d, k)
	}
	m := &Model{D: d, K: k, W: make([]float64, d*k)}
	for i := range m.W {
		m.W[i] = init
	}
	return m, nil
}

// Scores computes the K linear scores w_k . x into out (allocated if nil).
func (m *Model) Scores(x []float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, m.K)
	} else {
		for k := range out {
			out[k] = 0
		}
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.W[i*m.K : i*m.K+m.K]
		for k, w := range row {
			out[k] += w * xi
		}
	}
	return out
}

// ScoresBatch computes the linear scores of n feature vectors in a single
// pass over the weight matrix: out is (or becomes) an n x K row-major
// matrix, row i holding the scores of xs[i]. The weight row for feature i
// is loaded once and applied to every vector while it is hot, which is
// what makes batched serving cheaper than n Scores calls. Per vector, the
// accumulation order over features is exactly the one Scores uses, so the
// batched scores are bit-identical to the per-vector ones.
func (m *Model) ScoresBatch(xs [][]float64, out []float64) []float64 {
	need := len(xs) * m.K
	if cap(out) < need {
		out = make([]float64, need)
	}
	out = out[:need]
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < m.D; i++ {
		row := m.W[i*m.K : i*m.K+m.K]
		for n, x := range xs {
			xi := x[i]
			if xi == 0 {
				continue
			}
			dst := out[n*m.K : n*m.K+m.K]
			for k, w := range row {
				dst[k] += w * xi
			}
		}
	}
	return out
}

// Predict returns the argmax class for x (paper eq. 8-9: the hard decision
// needs no exponentiation).
func (m *Model) Predict(x []float64) int {
	if len(x) != m.D {
		panic(fmt.Sprintf("softmax: feature length %d, model expects %d", len(x), m.D))
	}
	s := m.Scores(x, nil)
	best, bi := math.Inf(-1), 0
	for k, v := range s {
		if v > best {
			best, bi = v, k
		}
	}
	return bi
}

// SoftmaxInPlace normalises a score vector into the soft-max distribution
// it implies, in place. Both Probabilities methods and the batched serving
// path funnel through it so their float operations (and therefore their
// serialized output) are identical.
func SoftmaxInPlace(s []float64) {
	maxS := math.Inf(-1)
	for _, v := range s {
		if v > maxS {
			maxS = v
		}
	}
	total := 0.0
	for k, v := range s {
		s[k] = math.Exp(v - maxS)
		total += s[k]
	}
	for k := range s {
		s[k] /= total
	}
}

// Probabilities returns the full soft-max distribution for x.
func (m *Model) Probabilities(x []float64) []float64 {
	s := m.Scores(x, nil)
	SoftmaxInPlace(s)
	return s
}

// Train fits a model to the examples by maximising the regularised data
// log-likelihood (paper eq. 6-7) with Polak-Ribiere conjugate gradients
// and a backtracking line search. Training is deterministic.
func Train(d, k int, examples []Example, opts Options) (*Model, error) {
	return train(d, k, examples, opts, true)
}

// train is Train. With reuse, the gradient evaluation after an accepted
// line-search step takes the run scores and log-partitions the step's
// evalAt computed from the same weights; without it they are recomputed,
// which is the reference the reuse is tested against.
func train(d, k int, examples []Example, opts Options, reuse bool) (*Model, error) {
	if len(examples) == 0 {
		return nil, errors.New("softmax: no training examples")
	}
	for i, ex := range examples {
		if len(ex.X) != d {
			return nil, fmt.Errorf("softmax: example %d has %d features, want %d", i, len(ex.X), d)
		}
		if ex.Y < 0 || ex.Y >= k {
			return nil, fmt.Errorf("softmax: example %d label %d out of range [0,%d)", i, ex.Y, k)
		}
	}
	m, err := NewModel(d, k, opts.InitWeight)
	if err != nil {
		return nil, err
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 200
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-5
	}

	n := d * k
	grad := make([]float64, n)
	prevGrad := make([]float64, n)
	dir := make([]float64, n)
	trial := make([]float64, n)
	ob := newObjective(examples, k, opts.Lambda)

	f := ob.eval(m.W, grad, true)
	for i := range dir {
		dir[i] = -grad[i]
	}
	alpha := 1.0 / (1 + float64(len(examples)))

	for it := 0; it < opts.MaxIter; it++ {
		gnorm := norm(grad)
		if gnorm < opts.Tol {
			break
		}
		// Ensure a descent direction; restart on failure.
		if dot(grad, dir) >= 0 {
			for i := range dir {
				dir[i] = -grad[i]
			}
		}
		// Backtracking line search (Armijo).
		slope := dot(grad, dir)
		step := alpha * 4
		var fNew float64
		accepted := false
		for ls := 0; ls < 40; ls++ {
			for i := range trial {
				trial[i] = m.W[i] + step*dir[i]
			}
			fNew = ob.evalAt(trial)
			if fNew <= f+1e-4*step*slope {
				accepted = true
				break
			}
			step *= 0.5
		}
		if !accepted {
			break // no further progress possible along any tried step
		}
		alpha = step
		copy(m.W, trial)
		copy(prevGrad, grad)
		f = ob.eval(m.W, grad, !reuse)

		// Polak-Ribiere beta with automatic restart.
		num := 0.0
		for i := range grad {
			num += grad[i] * (grad[i] - prevGrad[i])
		}
		den := dot(prevGrad, prevGrad)
		beta := 0.0
		if den > 0 {
			beta = num / den
		}
		if beta < 0 {
			beta = 0
		}
		for i := range dir {
			dir[i] = -grad[i] + beta*dir[i]
		}
	}
	return m, nil
}

// objective is the training loss f = -L + lambda*||W||^2 over a fixed
// example set, with the scratch its evaluations reuse.
//
// A phase with several good configurations contributes several
// consecutive examples sharing one feature vector, so the examples are
// grouped into runs of equal X: the scores, log-partition and class
// probabilities are computed once per run, while the loss term and the
// gradient adds still happen once per example in example order. Each
// example contributes exactly the float operations, in the same order,
// that scoring it alone would, so the grouping never changes a bit.
type objective struct {
	runs   []run
	k      int
	lambda float64
	scores []float64 // len(runs)*k: each run's scores at the last scored weights
	logZ   []float64 // each run's log-partition at those weights
	probs  []float64 // k soft-max probabilities of the current run
}

// run is a maximal run of consecutive examples with element-wise equal X:
// the non-zero entries of that X in feature order, and the examples'
// labels in example order.
type run struct {
	nz []nzFeature
	ys []int
}

// nzFeature is one non-zero feature: its weight-row offset i*K and value.
type nzFeature struct {
	off int
	x   float64
}

func newObjective(examples []Example, k int, lambda float64) *objective {
	// Run r is examples[starts[r]:starts[r+1]]; nnz counts the non-zero
	// features of the runs' vectors, so the shared slabs below are sized
	// exactly.
	var starts []int
	nnz := 0
	for i, ex := range examples {
		if i > 0 && sameFeatures(ex.X, examples[starts[len(starts)-1]].X) {
			continue
		}
		starts = append(starts, i)
		for _, xj := range ex.X {
			if xj != 0 {
				nnz++
			}
		}
	}
	ys := make([]int, len(examples))
	for i, ex := range examples {
		ys[i] = ex.Y
	}
	nz := make([]nzFeature, 0, nnz)
	o := &objective{
		runs:   make([]run, len(starts)),
		k:      k,
		lambda: lambda,
		scores: make([]float64, len(starts)*k),
		logZ:   make([]float64, len(starts)),
		probs:  make([]float64, k),
	}
	for r, start := range starts {
		end := len(examples)
		if r+1 < len(starts) {
			end = starts[r+1]
		}
		n0 := len(nz)
		for j, xj := range examples[start].X {
			if xj != 0 {
				nz = append(nz, nzFeature{off: j * k, x: xj})
			}
		}
		o.runs[r] = run{nz: nz[n0:len(nz):len(nz)], ys: ys[start:end:end]}
	}
	return o
}

// sameFeatures reports whether a and b are element-wise equal.
func sameFeatures(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// score computes every run's K scores and log-partition at weights w.
// Four classes accumulate at a time in registers, each over the run's
// non-zero features in ascending order: per class exactly the adds
// Model.Scores makes, in its order, so every score matches it bit for
// bit.
func (o *objective) score(w []float64) {
	k := o.k
	for r := range o.runs {
		nz := o.runs[r].nz
		s := o.scores[r*k : r*k+k]
		c := 0
		for ; c+4 <= k; c += 4 {
			var a0, a1, a2, a3 float64
			for _, f := range nz {
				row := w[f.off+c : f.off+c+4]
				a0 += row[0] * f.x
				a1 += row[1] * f.x
				a2 += row[2] * f.x
				a3 += row[3] * f.x
			}
			s[c], s[c+1], s[c+2], s[c+3] = a0, a1, a2, a3
		}
		for ; c < k; c++ {
			var a float64
			for _, f := range nz {
				a += w[f.off+c] * f.x
			}
			s[c] = a
		}
		o.logZ[r] = logSumExp(s)
	}
}

// logSumExp returns log sum_k exp(s_k), computed stably around the
// maximum score.
func logSumExp(s []float64) float64 {
	maxS := math.Inf(-1)
	for _, v := range s {
		if v > maxS {
			maxS = v
		}
	}
	z := 0.0
	for _, v := range s {
		z += math.Exp(v - maxS)
	}
	return math.Log(z) + maxS
}

// eval returns the loss at w and writes its gradient into grad. With
// rescore false it takes the run scores and log-partitions from the last
// evaluation, which the caller guarantees was at these same weights.
func (o *objective) eval(w, grad []float64, rescore bool) float64 {
	if rescore {
		o.score(w)
	}
	clear(grad)
	k := o.k
	probs := o.probs
	f := 0.0
	for r := range o.runs {
		s := o.scores[r*k : r*k+k]
		logZ := o.logZ[r]
		for c, v := range s {
			probs[c] = math.Exp(v - logZ)
		}
		for _, y := range o.runs[r].ys {
			f -= s[y] - logZ
			// Gradient of -log-likelihood: (sigma_k - delta_k) * x. The
			// label's probability holds p-1 while this example is added.
			py := probs[y]
			probs[y] = py - 1
			addGrad(grad, o.runs[r].nz, probs)
			probs[y] = py
		}
	}
	for i, wi := range w {
		f += o.lambda * wi * wi
		grad[i] += 2 * o.lambda * wi
	}
	return f
}

// addGrad adds coeff[c]*x to grad[off+c] for every non-zero feature and
// every class whose coefficient is non-zero, four classes at a time with
// their coefficients in registers. Each element gets at most one add per
// call, so the order of adds into any element stays the example order.
func addGrad(grad []float64, nz []nzFeature, coeff []float64) {
	k := len(coeff)
	c := 0
	for ; c+4 <= k; c += 4 {
		p0, p1, p2, p3 := coeff[c], coeff[c+1], coeff[c+2], coeff[c+3]
		if p0 != 0 && p1 != 0 && p2 != 0 && p3 != 0 {
			for _, f := range nz {
				row := grad[f.off+c : f.off+c+4]
				row[0] += p0 * f.x
				row[1] += p1 * f.x
				row[2] += p2 * f.x
				row[3] += p3 * f.x
			}
			continue
		}
		for _, f := range nz {
			row := grad[f.off+c : f.off+c+4]
			if p0 != 0 {
				row[0] += p0 * f.x
			}
			if p1 != 0 {
				row[1] += p1 * f.x
			}
			if p2 != 0 {
				row[2] += p2 * f.x
			}
			if p3 != 0 {
				row[3] += p3 * f.x
			}
		}
	}
	for ; c < k; c++ {
		p := coeff[c]
		if p == 0 {
			continue
		}
		for _, f := range nz {
			grad[f.off+c] += p * f.x
		}
	}
}

// evalAt returns the loss at weights w without computing the gradient,
// leaving w's run scores and log-partitions for a following eval.
func (o *objective) evalAt(w []float64) float64 {
	o.score(w)
	k := o.k
	f := 0.0
	for r := range o.runs {
		s := o.scores[r*k : r*k+k]
		logZ := o.logZ[r]
		for _, y := range o.runs[r].ys {
			f -= s[y] - logZ
		}
	}
	for _, wi := range w {
		f += o.lambda * wi * wi
	}
	return f
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// Quantized is the 8-bit fixed-point form of a model, matching the
// perceptron-style hardware implementation the paper sketches in §VIII
// (signed 8-bit weights, ~2KB storage for the basic counter set).
type Quantized struct {
	D, K  int
	Scale float64 // weight = Scale * int8 value
	W     []int8
}

// Quantize converts the model to 8-bit weights with a single shared scale.
func (m *Model) Quantize() *Quantized {
	maxAbs := 0.0
	for _, w := range m.W {
		if a := math.Abs(w); a > maxAbs {
			maxAbs = a
		}
	}
	q := &Quantized{D: m.D, K: m.K, W: make([]int8, len(m.W))}
	if maxAbs == 0 {
		q.Scale = 1
		return q
	}
	q.Scale = maxAbs / 127
	for i, w := range m.W {
		v := math.Round(w / q.Scale)
		if v > 127 {
			v = 127
		}
		if v < -127 {
			v = -127
		}
		q.W[i] = int8(v)
	}
	return q
}

// Scores computes the K linear scores in float weight units (the integer
// accumulator times Scale) into out (allocated if nil). Scaling does not
// change the argmax but makes the scores comparable to the float model's,
// so the soft-max distribution over them is meaningful.
func (q *Quantized) Scores(x []float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, q.K)
	} else {
		for k := range out {
			out[k] = 0
		}
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := q.W[i*q.K : i*q.K+q.K]
		for k, w := range row {
			out[k] += float64(w) * xi
		}
	}
	for k := range out {
		out[k] *= q.Scale
	}
	return out
}

// ScoresBatch is the 8-bit counterpart of Model.ScoresBatch: one pass over
// the int8 weight matrix scoring every vector, bit-identical per vector to
// Scores (same accumulation order, same trailing Scale multiply).
func (q *Quantized) ScoresBatch(xs [][]float64, out []float64) []float64 {
	need := len(xs) * q.K
	if cap(out) < need {
		out = make([]float64, need)
	}
	out = out[:need]
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < q.D; i++ {
		row := q.W[i*q.K : i*q.K+q.K]
		for n, x := range xs {
			xi := x[i]
			if xi == 0 {
				continue
			}
			dst := out[n*q.K : n*q.K+q.K]
			for k, w := range row {
				dst[k] += float64(w) * xi
			}
		}
	}
	for i := range out {
		out[i] *= q.Scale
	}
	return out
}

// Predict returns the argmax class using the quantised weights.
func (q *Quantized) Predict(x []float64) int {
	scores := q.Scores(x, nil)
	best, bi := math.Inf(-1), 0
	for k, v := range scores {
		if v > best {
			best, bi = v, k
		}
	}
	return bi
}

// Probabilities returns the soft-max distribution implied by the quantised
// scores — the serving path's confidence estimate for 8-bit deployments.
func (q *Quantized) Probabilities(x []float64) []float64 {
	s := q.Scores(x, nil)
	SoftmaxInPlace(s)
	return s
}

// StorageBytes returns the storage footprint of the quantised weights.
func (q *Quantized) StorageBytes() int { return len(q.W) }
