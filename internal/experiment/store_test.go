package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/store"
)

// renderPipeline builds a dataset against st and renders a representative
// slice of the paper outputs (Table III, the suite comparison, Figure 7)
// into one string, returning it with the dataset.
func renderPipeline(t *testing.T, st *store.Store) (string, *Dataset) {
	t.Helper()
	ds, err := Build(context.Background(), obsScale(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := ds.EvaluateModel(counters.Basic)
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := ds.Figure7(ev)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(ds.TableIII().Render())
	b.WriteString(ds.Suite(ev, ev).Render())
	b.WriteString(fig7.Render())
	return b.String(), ds
}

// TestWarmStoreDeterminism is the acceptance contract for the persistent
// store: a cold build that populates the store and a warm rebuild that
// replays from it must produce byte-identical tables/figures, the same
// in-sample partitioning, and the warm run must answer every
// measurement-mode simulation from disk.
func TestWarmStoreDeterminism(t *testing.T) {
	dir := t.TempDir()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldOut, coldDS := renderPipeline(t, st1)
	coldStats := st1.Stats()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	if coldStats.Hits != 0 {
		t.Errorf("cold build hit the store %d times", coldStats.Hits)
	}
	if coldStats.Records == 0 {
		t.Fatal("cold build stored no records")
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warmOut, warmDS := renderPipeline(t, st2)
	warmStats := st2.Stats()

	if warmOut != coldOut {
		t.Errorf("warm rebuild output differs from cold build:\n--- cold ---\n%s\n--- warm ---\n%s", coldOut, warmOut)
	}
	if warmStats.Hits == 0 {
		t.Error("warm rebuild never hit the store")
	}
	if warmStats.Misses != 0 {
		t.Errorf("warm rebuild missed the store %d times (records not shared?)", warmStats.Misses)
	}

	// The in-sample partition — what the oracle and good sets are allowed
	// to see — must be identical, phase by phase, config by config.
	if !reflect.DeepEqual(coldDS.Phases, warmDS.Phases) {
		t.Fatalf("phase lists differ: %v vs %v", coldDS.Phases, warmDS.Phases)
	}
	for _, id := range coldDS.Phases {
		if !reflect.DeepEqual(coldDS.SampleSpace(id), warmDS.SampleSpace(id)) {
			t.Errorf("in-sample partition differs for %s", id)
		}
		if coldDS.Best[id] != warmDS.Best[id] {
			t.Errorf("best config differs for %s: %v vs %v", id, coldDS.Best[id], warmDS.Best[id])
		}
		if !reflect.DeepEqual(coldDS.Good[id], warmDS.Good[id]) {
			t.Errorf("good set differs for %s", id)
		}
	}
	if coldDS.BestStatic != warmDS.BestStatic {
		t.Errorf("best static differs: %v vs %v", coldDS.BestStatic, warmDS.BestStatic)
	}
	if coldDS.SimCount() != warmDS.SimCount() {
		t.Errorf("memo sizes differ: %d vs %d", coldDS.SimCount(), warmDS.SimCount())
	}
}

// TestStoreKeepsPredictionsOutOfSample asserts the contract CLAUDE.md
// pins: results fetched through Dataset.Result — the model-prediction
// path — stay out of the sample space even when they come from the
// store, and a later SampleResult for the same config still promotes it.
func TestStoreKeepsPredictionsOutOfSample(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Build(context.Background(), obsScale(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	id := ds.Phases[0]
	probe := ds.Best[id].With(0, 2) // width=2 variant; may or may not be sampled already
	inSampleBefore := len(ds.SampleSpace(id))
	if _, err := ds.Result(id, probe); err != nil {
		t.Fatal(err)
	}
	afterResult := len(ds.SampleSpace(id))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Rebuild warm: the probe's record is now in the store. Result must
	// still not add it to the sample space; SampleResult must.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ds2, err := Build(context.Background(), obsScale(), WithStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ds2.SampleSpace(id)); got != inSampleBefore {
		t.Fatalf("warm build in-sample size = %d, want %d", got, inSampleBefore)
	}
	if _, err := ds2.Result(id, probe); err != nil {
		t.Fatal(err)
	}
	if got := len(ds2.SampleSpace(id)); got != afterResult {
		t.Errorf("store-served Result changed the sample space: %d, want %d", got, afterResult)
	}
	if _, err := ds2.SampleResult(id, probe); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, cfg := range ds2.SampleSpace(id) {
		if cfg == probe {
			found = true
		}
	}
	if !found {
		t.Error("SampleResult did not promote a store-served config into the sample space")
	}
}

// BenchmarkDatasetBuildCold measures the full test-scale dataset build
// against a fresh (cold) store: every simulation runs and every result
// is persisted, so it prices the build layer end to end.
func BenchmarkDatasetBuildCold(b *testing.B) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Build(ctx, TestScale(), WithStore(st)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
