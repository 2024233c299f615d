package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/obs"
)

// obsScale is a deliberately tiny pipeline: the determinism test runs it
// twice.
func obsScale() Scale {
	return Scale{
		Programs:         []string{"mcf", "swim"},
		PhasesPerProgram: 1,
		IntervalInsts:    800,
		WarmupInsts:      400,
		UniformSamples:   4,
		LocalSamples:     2,
		GoodThreshold:    0.95,
		SampledSets:      8,
		Seed:             7,
	}
}

// runTracedPipeline builds a dataset and runs a LOOCV evaluation with the
// process tracer capturing spans, returning the duration-free span tree.
func runTracedPipeline(t *testing.T) string {
	t.Helper()
	tr := obs.DefaultTracer()
	tr.Reset()
	tr.Enable()
	defer tr.Disable()
	ds, err := Build(context.Background(), obsScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.EvaluateModel(counters.Basic); err != nil {
		t.Fatal(err)
	}
	tree := tr.Tree()
	tr.Reset()
	return tree
}

// TestPipelineSpanTreeDeterministic is the reproducibility contract for
// tracing: two seeded runs of the same pipeline must emit byte-identical
// span trees (names, args, ordering, hierarchy — durations excluded).
func TestPipelineSpanTreeDeterministic(t *testing.T) {
	first := runTracedPipeline(t)
	second := runTracedPipeline(t)
	if first != second {
		t.Errorf("span trees differ between seeded runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	for _, want := range []string{
		"experiment.build-dataset", "tracegen", "search mcf/0",
		"best-static", "good-sets", "profile swim/0",
		"experiment.loocv basic", "fold mcf", "fold swim",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("span tree missing %q:\n%s", want, first)
		}
	}
}

// TestBuildCancelled asserts a pre-cancelled context aborts the
// build promptly with a wrapped context error.
func TestBuildCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, obsScale()); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("Build with cancelled ctx: err = %v, want cancellation", err)
	}
	ds, err := Build(context.Background(), obsScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.EvaluateModelCtx(ctx, counters.Basic); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("EvaluateModelCtx with cancelled ctx: err = %v, want cancellation", err)
	}
}

// TestBuildCancelledBeforeProfiling cancels once the search has finished:
// the profiling fan-out must not start a single simulation, and Build
// must report the cancellation from the profiling stage.
func TestBuildCancelledBeforeProfiling(t *testing.T) {
	withProcs(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var simsAtCancel uint64
	SetProgress(func(stage string, done, total int) {
		if stage == "search" && done == total {
			_, simsAtCancel = MemoStats()
			cancel()
		}
	})
	defer SetProgress(nil)
	_, err := Build(ctx, obsScale())
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "profiling cancelled") {
		t.Fatalf("err = %v, want a profiling cancellation", err)
	}
	if _, sims := MemoStats(); sims != simsAtCancel {
		t.Errorf("%d simulations ran after the cancellation", sims-simsAtCancel)
	}
}

// TestMemoStatsAdvance asserts the memoisation counters move when a
// dataset is built (hits come from the repeated Result reads in the
// aggregate helpers and the search protocol's shared configs).
func TestMemoStatsAdvance(t *testing.T) {
	h0, m0 := MemoStats()
	ds, err := Build(context.Background(), obsScale())
	if err != nil {
		t.Fatal(err)
	}
	ds.RatioMean(ds.Phases, ds.Oracle())
	h1, m1 := MemoStats()
	if m1 <= m0 {
		t.Errorf("simulation counter did not advance: %d -> %d", m0, m1)
	}
	if h1 <= h0 {
		t.Errorf("memo-hit counter did not advance: %d -> %d", h0, h1)
	}
}
