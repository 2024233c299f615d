// Command adaptsim runs the paper's adaptive processor end to end: it
// trains the predictive model on the benchmark suite, then executes a
// chosen program under the runtime controller (monitor -> profile ->
// predict -> reconfigure, Figure 2 of the paper), printing one line per
// monitoring interval plus the final energy-efficiency comparison against
// the best static configuration.
//
// Usage:
//
//	adaptsim [-program mcf] [-intervals 20] [-interval-insts 20000]
//	         [-counter-set advanced|basic] [-cadence N] [-cache-dir DIR]
//
// With -cache-dir, the training dataset is built against the persistent
// simulation-result store (internal/store), so repeated adaptsim runs —
// even for different -program values, which train on overlapping
// benchmark subsets — reuse each other's simulations. With -model-cache,
// the first run saves the trained predictor together with its training
// dataset's best static configuration, and later runs load both, so a
// cached rerun prints exactly what the training run printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	var (
		program   = flag.String("program", "mcf", "benchmark to run under the controller")
		intervals = flag.Int("intervals", 20, "monitoring intervals to execute")
		ivInsts   = flag.Int("interval-insts", 20000, "instructions per monitoring interval")
		setName   = flag.String("counter-set", "advanced", "counter set: advanced or basic")
		cadence   = flag.Int("cadence", 0, "if > 0, caches adapt only every Nth reconfiguration")
		ovScale   = flag.Float64("overhead-scale", 0.02, "reconfiguration overhead scale (1 = paper-absolute)")
		modelPath = flag.String("model-cache", "", "path to save/load the trained predictor (skips retraining)")
		cacheDir  = flag.String("cache-dir", "", "persistent simulation-result store for the training build (empty disables)")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, *logJSON, obs.ParseLevel(*logLevel))
	die := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	if !trace.IsBenchmark(*program) {
		die(fmt.Errorf("unknown benchmark %q (choose from %v)", *program, trace.Benchmarks()))
	}
	set := counters.Advanced
	if *setName == "basic" {
		set = counters.Basic
	}

	// Train on a scaled dataset that excludes the target program —
	// honest held-out prediction, as in the paper's evaluation.
	sc := experiment.DefaultScale()
	sc.PhasesPerProgram = 3
	var progs []string
	for _, p := range trace.Benchmarks() {
		if p != *program {
			progs = append(progs, p)
		}
	}
	sc.Programs = progs
	var pred *core.Predictor
	var bestStatic arch.Config
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		switch {
		case err == nil:
			pred, bestStatic, err = readModelCache(f)
			f.Close()
			if err != nil {
				die(fmt.Errorf("loading cached model %s: %w (delete it to retrain)", *modelPath, err))
			}
			// A cached predictor must match the requested counter set, or
			// every prediction would be mis-dimensioned (LoadPredictor has
			// already validated the file against its own declared set).
			if pred.Set != set {
				die(fmt.Errorf("cached model %s was trained on the %q counter set but -counter-set is %q; delete the cache or pass -counter-set %s",
					*modelPath, pred.Set, set, pred.Set))
			}
			logger.Info("loaded trained predictor", "path", *modelPath, "bestStatic", bestStatic.String())
		case !errors.Is(err, os.ErrNotExist):
			die(fmt.Errorf("opening model cache %s: %w", *modelPath, err))
		}
	}
	if pred == nil {
		var st *store.Store
		if *cacheDir != "" {
			var err error
			if st, err = store.Open(*cacheDir); err != nil {
				die(fmt.Errorf("opening -cache-dir: %w", err))
			}
			defer st.Close()
			logger.Info("result store open", "dir", *cacheDir, "records", st.Len())
		}
		logger.Info("building training dataset", "programs", len(progs), "phasesPerProgram", sc.PhasesPerProgram)
		prog := &obs.Progress{Logger: logger}
		experiment.SetProgress(func(stage string, done, total int) {
			prog.Observe(stage, done, total)
		})
		ds, err := experiment.Build(context.Background(), sc, experiment.WithStore(st))
		if err != nil {
			die(err)
		}
		experiment.SetProgress(nil)
		if st != nil {
			s := st.Stats()
			logger.Info("store stats", "storeHits", s.Hits, "storeMisses", s.Misses,
				"records", s.Records, "bytesWritten", s.BytesWritten)
		}
		logger.Info("training predictor", "counters", set.String())
		pred, err = ds.TrainAll(set)
		if err != nil {
			die(err)
		}
		bestStatic = ds.BestStatic
		if *modelPath != "" {
			f, err := os.Create(*modelPath)
			if err != nil {
				die(err)
			}
			if err := writeModelCache(f, pred, bestStatic); err != nil {
				die(err)
			}
			if err := f.Close(); err != nil {
				die(err)
			}
			logger.Info("saved trained predictor", "path", *modelPath)
		}
	}

	opts := core.DefaultOptions()
	opts.Interval = *ivInsts
	opts.SampledSets = sc.SampledSets
	opts.Start = bestStatic
	opts.Threshold = 0.6
	// Table V overheads are absolute; intervals here are ~1000x shorter
	// than the paper's, so scale the overheads correspondingly.
	opts.OverheadScale = *ovScale
	if *cadence > 0 {
		opts.Cadence = core.EveryNth(*cadence)
	}
	ctl, err := core.NewController(pred, opts)
	if err != nil {
		die(err)
	}

	// Walk the program's phases in equal shares of the run.
	perPhase := max(1, *intervals**ivInsts/trace.PhasesPerProgram)
	src, err := trace.NewPhaseWalker(*program, perPhase)
	if err != nil {
		die(err)
	}

	logger.Info("running controller", "program", *program, "intervals", *intervals, "intervalInsts", *ivInsts)
	rep, err := ctl.Run(src, *intervals)
	if err != nil {
		die(err)
	}
	for _, r := range rep.Records {
		tag := " "
		if r.Profiled {
			tag = "P"
		}
		ch := " "
		if r.PhaseChange {
			ch = "*"
		}
		fmt.Printf("interval %3d %s%s cycles=%7d  E=%8.2eJ  eff=%9.3e  cfg: W=%d ROB=%d IQ=%d D$=%dK L2=%dK FO4=%d\n",
			r.Index, tag, ch, r.Cycles, r.EnergyJ, r.Efficiency,
			r.Config[arch.Width], r.Config[arch.ROBSize], r.Config[arch.IQSize],
			r.Config[arch.DCacheKB], r.Config[arch.L2CacheKB], r.Config[arch.DepthFO4])
	}
	fmt.Printf("\ncontroller: %d phase changes, %d profiles, %d reconfigurations\n",
		rep.PhaseChanges, rep.Profiles, rep.Reconfigs)
	fmt.Printf("aggregate: %.3e ips, %.1f W, efficiency %.3e ips^3/W\n", rep.IPS, rep.Watts, rep.Efficiency)

	// Static reference: run the same stream on the best static config.
	src2, err := trace.NewPhaseWalker(*program, perPhase)
	if err != nil {
		die(err)
	}
	sim, err := cpu.New(bestStatic)
	if err != nil {
		die(err)
	}
	res, err := sim.Run(src2, *intervals**ivInsts, cpu.Options{})
	if err != nil {
		die(err)
	}
	fmt.Printf("best static (%v):\n  efficiency %.3e ips^3/W\n", bestStatic, res.Efficiency)
	if res.Efficiency > 0 {
		fmt.Printf("adaptive / static efficiency ratio: %.2fx\n", rep.Efficiency/res.Efficiency)
	}
}
