package trace

import "testing"

// benchPrograms are the programs the runtime-controller benchmark holds
// out of training; their streams are what a controller run generates.
var benchPrograms = []string{"ammp", "art", "bzip2", "equake", "gap", "twolf", "vortex", "wupwise"}

// benchSink keeps the benchmarked calls' results live.
var benchSink Inst

// BenchmarkGeneratorNext measures instruction generation, the stream
// supply of every Source-fed simulation, over the held-out programs'
// phases (ns/inst).
func BenchmarkGeneratorNext(b *testing.B) {
	var gens []*Generator
	for _, p := range benchPrograms {
		for ph := 0; ph < PhasesPerProgram; ph += 3 {
			g, err := NewGenerator(p, ph)
			if err != nil {
				b.Fatal(err)
			}
			gens = append(gens, g)
		}
	}
	const burst = 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := gens[i%len(gens)]
		for j := 0; j < burst; j++ {
			benchSink = g.Next()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/inst")
}
