package core

import (
	"testing"

	"repro/internal/counters"
)

// BenchmarkControllerRun measures the runtime controller over a
// generator-fed phase walk: instruction supply, phase detection,
// profiling, prediction and the interval simulations (ns/inst).
func BenchmarkControllerRun(b *testing.B) {
	pred := trainToyPredictor(b, counters.Advanced)
	opts := DefaultOptions()
	opts.SampledSets = 32
	opts.OverheadScale = 0.02
	const intervals = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl, err := NewController(pred, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctl.Run(walk(b, "equake", 2*opts.Interval), intervals); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*intervals*opts.Interval), "ns/inst")
}
