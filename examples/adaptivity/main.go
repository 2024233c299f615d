// Adaptivity: the paper's full loop, live. A predictor is trained on a
// handful of benchmarks, then a *different* benchmark runs under the
// runtime controller: watch it detect phase changes, profile on the
// maximal configuration, predict, and reconfigure — and compare the
// resulting energy-efficiency against staying on the best static machine.
//
// Run with: go run ./examples/adaptivity   (takes a minute or two)
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/trace"
)

func main() {
	// Train on sixteen diverse programs; evaluate on one (equake) the
	// model has never seen — honest held-out adaptation. Prediction
	// quality grows with training breadth, so the example spends most of
	// its runtime here.
	sc := experiment.TestScale()
	sc.Programs = []string{
		"mcf", "swim", "crafty", "gzip", "eon", "applu",
		"art", "parser", "galgel", "sixtrack", "mgrid", "vortex",
		"twolf", "lucas", "ammp", "bzip2",
	}
	sc.PhasesPerProgram = 4
	sc.IntervalInsts = 5000
	sc.WarmupInsts = 5000
	sc.UniformSamples = 24
	sc.LocalSamples = 8

	log.Println("building training data (a few thousand simulations)...")
	ds, err := experiment.Build(context.Background(), sc)
	if err != nil {
		log.Fatal(err)
	}
	log.Println("training the per-parameter soft-max models...")
	pred, err := ds.TrainAll(counters.Advanced)
	if err != nil {
		log.Fatal(err)
	}

	opts := core.DefaultOptions()
	// Intervals must exceed the programs' loop-walk period for working-set
	// signatures to be phase-stable (cf. SimPoint's 10M-instruction
	// intervals).
	opts.Interval = 24000
	opts.SampledSets = 32
	opts.Start = ds.BestStatic
	opts.Threshold = 0.6
	// Reconfiguration costs are the paper's absolute cycle counts; our
	// intervals are ~1000x shorter than its 10M-instruction intervals, so
	// scale the overheads to keep the same overhead-to-interval ratio.
	opts.OverheadScale = 0.02
	ctl, err := core.NewController(pred, opts)
	if err != nil {
		log.Fatal(err)
	}

	const program = "equake"
	const intervals = 12
	perPhase := 4 * opts.Interval
	src, err := trace.NewPhaseWalker(program, perPhase)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("running %s under the adaptive controller...", program)
	rep, err := ctl.Run(src, intervals)
	if err != nil {
		log.Fatal(err)
	}

	for _, r := range rep.Records {
		what := "steady"
		if r.Profiled {
			what = "PROFILE+PREDICT"
		}
		fmt.Printf("interval %2d: %-16s eff=%.3e  W=%d IQ=%d RF=%d D$=%dK L2=%dK FO4=%d\n",
			r.Index, what, r.Efficiency,
			r.Config[arch.Width], r.Config[arch.IQSize], r.Config[arch.RFSize],
			r.Config[arch.DCacheKB], r.Config[arch.L2CacheKB], r.Config[arch.DepthFO4])
	}

	// The static alternative on the identical stream.
	static, err := trace.NewPhaseWalker(program, perPhase)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := cpu.New(ds.BestStatic)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(static, intervals*opts.Interval, cpu.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nadaptive:   %.3e ips^3/W  (%d reconfigurations, %d profiles)\n",
		rep.Efficiency, rep.Reconfigs, rep.Profiles)
	fmt.Printf("best static: %.3e ips^3/W\n", res.Efficiency)
	if res.Efficiency > 0 {
		fmt.Printf("ratio:       %.2fx\n", rep.Efficiency/res.Efficiency)
	}
}
