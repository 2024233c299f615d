package core

import (
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/trace"
)

// Options configure the runtime controller.
type Options struct {
	// Interval is the monitoring interval in instructions (stage 1 of
	// Figure 2 operates at interval granularity).
	Interval int
	// SignatureBits and Threshold parameterise the online phase-change
	// detector.
	SignatureBits int
	Threshold     float64
	// SampledSets bounds cache profiler sampling during profiling
	// intervals (0 = all sets).
	SampledSets int
	// Start is the configuration the machine boots in.
	Start arch.Config
	// Cadence, if non-nil, restricts which parameters may be reconfigured
	// at each reconfiguration event (the paper's future-work extension:
	// per-structure adaptation frequencies). Nil adapts everything.
	Cadence CadencePolicy
	// OverheadScale scales reconfiguration stall cycles and energy. The
	// Table V costs are absolute (the paper amortises them over
	// 10M-instruction intervals); when running scaled-down intervals,
	// scale the overheads by the same factor to preserve the paper's
	// overhead-to-interval ratio. Zero means 1 (unscaled).
	OverheadScale float64
}

// DefaultOptions returns sensible controller settings for scaled runs.
func DefaultOptions() Options {
	return Options{
		Interval:      20000,
		SignatureBits: 1024,
		Threshold:     0.5,
		Start:         arch.Baseline(),
		OverheadScale: 1,
	}
}

// CadencePolicy decides, at the r-th reconfiguration event, which
// parameters may change. It enables the paper's proposed extension of
// adapting different structures at different frequencies.
type CadencePolicy func(reconfigIndex int, p arch.Param) bool

// EveryNth returns a cadence that adapts cheap structures every event but
// expensive ones (caches) only every n-th event.
func EveryNth(n int) CadencePolicy {
	return func(r int, p arch.Param) bool {
		switch p {
		case arch.ICacheKB, arch.DCacheKB, arch.L2CacheKB:
			return r%n == 0
		default:
			return true
		}
	}
}

// IntervalRecord summarises one monitoring interval of a controller run.
type IntervalRecord struct {
	Index        int
	Config       arch.Config
	PhaseChange  bool
	Profiled     bool
	Reconfigured bool
	Cycles       uint64
	EnergyJ      float64
	Seconds      float64
	IPS          float64
	Efficiency   float64
	StallCycles  uint64
}

// Report aggregates a controller run.
type Report struct {
	Records      []IntervalRecord
	TotalInsts   uint64
	TotalSeconds float64
	TotalEnergyJ float64
	PhaseChanges int
	Reconfigs    int
	Profiles     int

	// Aggregate metrics over the whole run.
	IPS        float64
	Watts      float64
	Efficiency float64
}

// Controller runs the paper's monitor -> profile -> predict -> reconfigure
// loop (Figure 2) over a live instruction stream.
type Controller struct {
	pred *Predictor
	opts Options

	det     *phase.Detector
	current arch.Config
	sim     *cpu.Sim
	recfg   int

	// Pending reconfiguration cost, charged to the next interval.
	pendingStall  uint64
	pendingEnergy float64
}

// NewController builds a controller around a trained predictor.
func NewController(pred *Predictor, opts Options) (*Controller, error) {
	if pred == nil {
		return nil, errors.New("core: nil predictor")
	}
	if opts.Interval <= 0 {
		return nil, fmt.Errorf("core: interval %d must be positive", opts.Interval)
	}
	if err := opts.Start.Check(); err != nil {
		return nil, err
	}
	det, err := phase.NewDetector(opts.SignatureBits, opts.Threshold)
	if err != nil {
		return nil, err
	}
	sim, err := cpu.New(opts.Start)
	if err != nil {
		return nil, err
	}
	return &Controller{
		pred:    pred,
		opts:    opts,
		det:     det,
		current: opts.Start,
		sim:     sim,
	}, nil
}

// Current returns the configuration the machine is currently in.
func (c *Controller) Current() arch.Config { return c.current }

// simFor reconfigures the single machine in place, preserving the state
// of structures that did not change (Sim.Reconfigure).
func (c *Controller) simFor(cfg arch.Config) (*cpu.Sim, error) {
	if c.sim.Config() != cfg {
		if err := c.sim.Reconfigure(cfg); err != nil {
			return nil, err
		}
	}
	return c.sim, nil
}

// Run executes nIntervals monitoring intervals from src and returns the
// report. The first interval always profiles (the machine knows nothing
// about the incoming program).
//
// src is read on another goroutine, an interval or two ahead of the
// simulation (cpu.ReadAhead): exactly nIntervals×Interval Next calls when
// the run succeeds, none of them after Run returns. It must not be used
// elsewhere during the call.
func (c *Controller) Run(src cpu.Source, nIntervals int) (*Report, error) {
	if nIntervals <= 0 {
		return nil, fmt.Errorf("core: interval count %d must be positive", nIntervals)
	}
	rep := &Report{}
	ra := cpu.NewReadAhead(src, nIntervals*c.opts.Interval, c.opts.Interval)
	defer ra.Close()
	for iv := 0; iv < nIntervals; iv++ {
		// Stage 1: monitor. Take the interval and update the detector.
		insts := ra.Next()
		for i := range insts {
			c.det.Observe(insts[i])
		}
		changed := c.det.EndInterval()
		rec := IntervalRecord{Index: iv, PhaseChange: changed}
		if changed {
			rep.PhaseChanges++
		}

		if changed || iv == 0 {
			// Stage 2: profile on the profiling configuration.
			if err := c.profileAndPredict(insts, &rec, rep); err != nil {
				return nil, err
			}
		} else {
			if err := c.runInterval(insts, c.current, cpu.Options{}, &rec); err != nil {
				return nil, err
			}
		}
		rec.Config = c.current
		rep.Records = append(rep.Records, rec)
		rep.TotalInsts += uint64(c.opts.Interval)
		rep.TotalSeconds += rec.Seconds
		rep.TotalEnergyJ += rec.EnergyJ
	}
	if rep.TotalSeconds > 0 {
		rep.IPS = float64(rep.TotalInsts) / rep.TotalSeconds
		rep.Watts = rep.TotalEnergyJ / rep.TotalSeconds
		rep.Efficiency = rep.IPS * rep.IPS * rep.IPS / rep.Watts
	}
	return rep, nil
}

// Profiling slice sizing: the paper profiles "briefly" (§III-B1) and
// amortises the cost over the phase (§VIII), but the counters need enough
// instructions to be statistically stable — temporal histograms gathered
// over a few hundred instructions are noise. An eighth of the interval,
// floored at profileMinInsts, balances the two at scaled interval sizes.
const (
	profileFraction = 8    // one eighth of the interval
	profileMinInsts = 3000 // histogram stability floor
)

// scaledOverhead computes the reconfiguration cost scaled per
// Options.OverheadScale.
func (c *Controller) scaledOverhead(from, to arch.Config) Cost {
	cost := Overhead(from, to, power.New(to))
	scale := c.opts.OverheadScale
	if scale == 0 {
		scale = 1
	}
	cost.StallCycles = uint64(float64(cost.StallCycles) * scale)
	cost.EnergyPJ *= scale
	return cost
}

// profileAndPredict runs stages 2-4 of Figure 2 within one interval:
// reconfigure to the profiling configuration, gather counters on the first
// eighth of the interval, predict, reconfigure, and run the remainder of
// the interval on the predicted configuration. All reconfiguration costs
// are charged to this interval.
func (c *Controller) profileAndPredict(insts []trace.Inst, rec *IntervalRecord, rep *Report) error {
	prof := arch.Profiling()
	cost := c.scaledOverhead(c.current, prof)
	n := len(insts) / profileFraction
	if n < profileMinInsts {
		n = profileMinInsts
	}
	if n > len(insts) {
		n = len(insts)
	}
	// Cache state migration across the resize is handled by
	// Sim.Reconfigure (surviving partitions keep their lines), so no
	// explicit flush is requested here; the stall and energy costs remain.
	opts := cpu.Options{
		Collect:       true,
		SampledSets:   c.opts.SampledSets,
		StartStall:    cost.StallCycles + c.pendingStall,
		ExtraEnergyPJ: cost.EnergyPJ + c.pendingEnergy,
	}
	c.pendingStall, c.pendingEnergy = 0, 0
	var profRec IntervalRecord
	res, err := c.runIntervalRes(insts[:n], prof, opts, &profRec)
	if err != nil {
		return err
	}
	rec.Profiled = true
	rec.StallCycles += cost.StallCycles
	rep.Profiles++

	// Stage 3: predict.
	feats := counters.Features(res, c.pred.Set)
	next := c.pred.Predict(feats)
	if c.opts.Cadence != nil {
		for p := arch.Param(0); p < arch.NumParams; p++ {
			if !c.opts.Cadence(c.recfg, p) {
				next[p] = c.current[p]
			}
		}
	}
	// Stage 4: reconfigure, then finish the interval on the new machine.
	swCost := c.scaledOverhead(prof, next)
	if next != c.current {
		rep.Reconfigs++
		rec.Reconfigured = true
		c.recfg++
	}
	c.current = next
	var runRec IntervalRecord
	if len(insts) > n {
		runOpts := cpu.Options{
			StartStall:    swCost.StallCycles,
			ExtraEnergyPJ: swCost.EnergyPJ,
		}
		if _, err := c.runIntervalRes(insts[n:], c.current, runOpts, &runRec); err != nil {
			return err
		}
	} else {
		c.pendingStall = swCost.StallCycles
		c.pendingEnergy = swCost.EnergyPJ
	}
	rec.StallCycles += swCost.StallCycles

	// Merge the profiling and post-reconfiguration sub-runs.
	rec.Cycles = profRec.Cycles + runRec.Cycles
	rec.EnergyJ = profRec.EnergyJ + runRec.EnergyJ
	rec.Seconds = profRec.Seconds + runRec.Seconds
	if rec.Seconds > 0 {
		rec.IPS = float64(len(insts)) / rec.Seconds
		watts := rec.EnergyJ / rec.Seconds
		if watts > 0 {
			rec.Efficiency = rec.IPS * rec.IPS * rec.IPS / watts
		}
	}
	return nil
}

// runInterval runs insts on cfg, applying any pending reconfiguration
// cost, and fills the record.
func (c *Controller) runInterval(insts []trace.Inst, cfg arch.Config, opts cpu.Options, rec *IntervalRecord) error {
	if c.pendingStall > 0 || c.pendingEnergy > 0 {
		opts.StartStall += c.pendingStall
		opts.ExtraEnergyPJ += c.pendingEnergy
		rec.StallCycles += c.pendingStall
		c.pendingStall, c.pendingEnergy = 0, 0
	}
	_, err := c.runIntervalRes(insts, cfg, opts, rec)
	return err
}

// runIntervalRes is runInterval returning the raw result.
func (c *Controller) runIntervalRes(insts []trace.Inst, cfg arch.Config, opts cpu.Options, rec *IntervalRecord) (*cpu.Result, error) {
	sim, err := c.simFor(cfg)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(cpu.NewSliceSource(insts), len(insts), opts)
	if err != nil {
		return nil, err
	}
	rec.Cycles = res.Cycles
	rec.EnergyJ = res.EnergyJ
	rec.Seconds = res.SecondsSim
	rec.IPS = res.IPS
	rec.Efficiency = res.Efficiency
	return res, nil
}
