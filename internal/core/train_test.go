package core

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/softmax"
)

// randomPhases draws n phases with dense random features and 1-4 random
// good configurations each, the shape the experiment harness trains on.
func randomPhases(rng *rand.Rand, set counters.Set, n int) []PhaseExample {
	d := counters.Dim(set)
	phases := make([]PhaseExample, n)
	for i := range phases {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		x[d-1] = 1
		good := make([]arch.Config, 1+rng.IntN(4))
		for g := range good {
			good[g] = arch.Random(rng)
		}
		phases[i] = PhaseExample{Features: x, Good: good}
	}
	return phases
}

// TestTrainPredictorWorkerCountInvariant pins the parallel training
// contract: the weights are bit-identical whether the fourteen
// per-parameter models train on one goroutine or several.
func TestTrainPredictorWorkerCountInvariant(t *testing.T) {
	phases := randomPhases(rand.New(rand.NewPCG(12, 34)), counters.Basic, 24)
	opts := softmax.DefaultOptions()
	opts.MaxIter = 40
	train := func(procs int) *Predictor {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		p, err := TrainPredictor(counters.Basic, phases, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	seq, par := train(1), train(4)
	for param := arch.Param(0); param < arch.NumParams; param++ {
		a, b := seq.Models[param].W, par.Models[param].W
		if len(a) != len(b) {
			t.Fatalf("%s: %d weights vs %d", param, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: weight %d is %v with GOMAXPROCS=1, %v with 4", param, i, a[i], b[i])
			}
		}
	}
}

// TestTrainPredictorPreCancelled checks that a cancelled context stops
// training with an error wrapping context.Canceled, and that no worker
// goroutine outlives the call.
func TestTrainPredictorPreCancelled(t *testing.T) {
	phases := randomPhases(rand.New(rand.NewPCG(5, 6)), counters.Basic, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	p, err := TrainPredictorCtx(ctx, counters.Basic, phases, softmax.DefaultOptions())
	if p != nil || err == nil {
		t.Fatalf("got predictor %v, err %v; want a cancellation error", p, err)
	}
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("error %q does not report the cancellation", err)
	}
	// Workers have returned once the call does; give the runtime a moment
	// to retire them before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after a cancelled training, %d before", n, before)
	}
}
