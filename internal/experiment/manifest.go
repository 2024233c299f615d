package experiment

import (
	"strings"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/store"
)

// FillBuildManifest records a finished dataset build into a run manifest,
// with the section split the manifest contract requires. Deterministic:
// the resolved scale, the store schema version and the dataset digest —
// everything a replay of the same configuration (cold or warm store, any
// GOMAXPROCS) reproduces byte-for-byte. Timing: the simulation/memoisation counters, which depend on
// store warm state (a warm replay pays for fewer simulations — that is
// the point) and so must never be diffed exactly.
func FillBuildManifest(m *obs.Manifest, ds *Dataset) {
	sc := ds.Scale
	m.SetDet("scale.programs", strings.Join(sc.Programs, ","))
	m.SetDet("scale.phasesPerProgram", sc.PhasesPerProgram)
	m.SetDet("scale.intervalInsts", sc.IntervalInsts)
	m.SetDet("scale.warmupInsts", sc.WarmupInsts)
	m.SetDet("scale.uniformSamples", sc.UniformSamples)
	m.SetDet("scale.localSamples", sc.LocalSamples)
	m.SetDet("scale.sweepParams", len(sc.SweepParams))
	m.SetDet("scale.goodThreshold", sc.GoodThreshold)
	m.SetDet("scale.sampledSets", sc.SampledSets)
	m.SetDet("scale.seed", sc.Seed)
	m.SetDet("simVersion", store.SimVersion)
	m.SetDet("datasetDigest", ds.Digest())
	m.SetDet("phases", len(ds.Phases))
	m.SetDet("sharedConfigs", len(ds.SharedConfigs))
	m.SetDet("simCount", ds.SimCount())
	hits, sims := MemoStats()
	m.SetTiming("memoHits", float64(hits))
	m.SetTiming("simulationsRun", float64(sims))
	m.SetTiming("searchSims", float64(SearchSimCount()))
	// Timing, not deterministic, even though it is an integer: a warm
	// store replays results without simulating their warmups, exactly
	// like the store hit counters above.
	m.SetTiming("warmupInsts", float64(cpu.WarmupInstructions()))
}
