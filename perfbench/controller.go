package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/trace"
)

// heldOutPrograms run under the controller; none of them is in the
// training set (pipelinePrograms), so every prediction is held out.
var heldOutPrograms = []string{"ammp", "art", "bzip2", "equake", "gap", "twolf", "vortex", "wupwise"}

const (
	ctlIntervals     = 60
	ctlIntervalInsts = 20000
	// ctlChunk is how many instructions walkSource generates per timed
	// refill: large enough that reading the clock costs nothing next to
	// generation, small enough that little is generated past the end.
	ctlChunk = 1024
)

// controller runs core.Controller over each held-out program and replays
// the same instruction stream on the best static configuration.
type controller struct {
	env        *runEnv
	pred       *core.Predictor
	bestStatic arch.Config
	opts       core.Options
	orders     map[string][]int
	digests    *digestCheck

	// From the latest pass, for the per-layer metrics.
	genTime                time.Duration
	ctlInsts, staticInsts  float64
	profiles, reconfigs    int
	phaseChanges           int
	ctlSeconds, staticSecs float64
}

// setupController trains the advanced-counter predictor on the pipeline
// programs (seed-independent, so set-up is the same work in every run) and
// derives each program's phase walk from the workload seed.
func setupController(ctx context.Context, env *runEnv) (instance, error) {
	sc := pipelineScale()
	sp := span("experiment.Build")
	ds, err := experiment.Build(ctx, sc)
	sp.Finish()
	if err != nil {
		return nil, err
	}
	sp = span("experiment.TrainAll")
	pred, err := ds.TrainAll(counters.Advanced)
	sp.Finish()
	if err != nil {
		return nil, err
	}
	// The controller settings of cmd/adaptsim, started on the best static
	// configuration it is compared against.
	opts := core.DefaultOptions()
	opts.Interval = ctlIntervalInsts
	opts.SampledSets = sc.SampledSets
	opts.Start = ds.BestStatic
	opts.Threshold = 0.6
	opts.OverheadScale = 0.02
	c := &controller{
		env:        env,
		pred:       pred,
		bestStatic: ds.BestStatic,
		opts:       opts,
		orders:     map[string][]int{},
		digests:    newDigestCheck(env),
	}
	for _, prog := range heldOutPrograms {
		c.orders[prog] = phaseOrder(env.seed, prog)
	}
	return c, nil
}

// phaseOrder is the seeded order in which a program's phases are walked.
func phaseOrder(seed uint64, program string) []int {
	h := fnv.New64a()
	h.Write([]byte(program))
	rng := rand.New(rand.NewPCG(seed, h.Sum64()))
	return rng.Perm(trace.PhasesPerProgram)
}

func (c *controller) close() error { return nil }

func (*controller) after(context.Context, *report) error { return nil }

func (c *controller) pass(_ context.Context, rep *report) error {
	t0 := time.Now()
	c.genTime, c.ctlSeconds, c.staticSecs = 0, 0, 0
	c.ctlInsts, c.staticInsts = 0, 0
	c.profiles, c.reconfigs, c.phaseChanges = 0, 0, 0
	before, err := readCounters()
	if err != nil {
		return err
	}
	h := sha256.New()
	var ratios []float64
	for _, prog := range heldOutPrograms {
		ratio, err := c.runProgram(prog, h)
		rep.attempt(err == nil)
		if err != nil {
			return fmt.Errorf("%s: %w", prog, err)
		}
		ratios = append(ratios, ratio)
	}
	after, err := readCounters()
	if err != nil {
		return err
	}
	insts := delta(before, after, "repro_sim_instructions_total")
	c.digests.check(rep, map[string]string{"records": hex.EncodeToString(h.Sum(nil))})
	rep.set("eff_vs_static", GeoMean(ratios))
	rep.set("sim_minst_per_s", insts/time.Since(t0).Seconds()/1e6)
	return nil
}

// runProgram runs one program under the controller and on the best static
// configuration, hashing both outcomes into h, and returns the adaptive
// over static efficiency ratio.
func (c *controller) runProgram(prog string, h hash.Hash) (float64, error) {
	src, err := newWalkSource(prog, c.orders[prog])
	if err != nil {
		return 0, err
	}
	sp := span("core.NewController")
	ctl, err := core.NewController(c.pred, c.opts)
	sp.Finish()
	if err != nil {
		return 0, err
	}
	before, err := readCounters()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	sp = span("core.Run " + prog)
	rep, err := ctl.Run(src, ctlIntervals)
	sp.Finish()
	if err != nil {
		return 0, err
	}
	c.ctlSeconds += time.Since(t0).Seconds()
	mid, err := readCounters()
	if err != nil {
		return 0, err
	}
	c.ctlInsts += delta(before, mid, "repro_sim_instructions_total")
	c.profiles += rep.Profiles
	c.reconfigs += rep.Reconfigs
	c.phaseChanges += rep.PhaseChanges

	static, err := newWalkSource(prog, c.orders[prog])
	if err != nil {
		return 0, err
	}
	sp = span("cpu.New")
	sim, err := cpu.New(c.bestStatic)
	sp.Finish()
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	sp = span("cpu.Run " + prog)
	res, err := sim.Run(static, ctlIntervals*ctlIntervalInsts, cpu.Options{})
	sp.Finish()
	if err != nil {
		return 0, err
	}
	c.staticSecs += time.Since(t0).Seconds()
	after, err := readCounters()
	if err != nil {
		return 0, err
	}
	c.staticInsts += delta(mid, after, "repro_sim_instructions_total")
	c.genTime += src.busy + static.busy

	fmt.Fprintf(h, "program %s\n", prog)
	for _, r := range rep.Records {
		writeU64(h, uint64(r.Index), r.Cycles, math.Float64bits(r.EnergyJ))
		writeConfig(h, r.Config)
	}
	writeU64(h, res.Cycles, res.Committed, math.Float64bits(res.EnergyJ), math.Float64bits(res.Efficiency))
	if res.Efficiency <= 0 || rep.Efficiency <= 0 {
		return 0, fmt.Errorf("non-positive efficiency (adaptive %g, static %g)", rep.Efficiency, res.Efficiency)
	}
	return rep.Efficiency / res.Efficiency, nil
}

func writeU64(h hash.Hash, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

func writeConfig(h hash.Hash, cfg arch.Config) {
	for p := arch.Param(0); p < arch.NumParams; p++ {
		writeU64(h, uint64(int64(cfg[p])))
	}
}

func (c *controller) layers(rep *report, t *spanTree, d counterDelta) {
	rep.set("trace.next_s", c.genTime.Seconds())
	rep.set("trace.gen_s", t.total("tracegen"))
	rep.set("experiment.build_s", t.total("bench.experiment.Build"))
	rep.set("experiment.search_s", t.total("search"))
	rep.set("experiment.profile_s", t.total("profile"))
	rep.set("experiment.search_sims", d.get("repro_sims_exact"))
	hits, sims := d.get("repro_experiment_memo_hits_total"), d.get("repro_experiment_simulations_total")
	if hits+sims > 0 {
		rep.set("experiment.memo_hit_frac", hits/(hits+sims))
	}
	rep.set("experiment.train_s", t.total("experiment.train"))
	setSimCounts(rep, d)
	rep.set("cpu.static_run_s", c.staticSecs)
	if c.staticInsts > 0 {
		rep.set("cpu.static_ns_per_inst", c.staticSecs*1e9/c.staticInsts)
	}
	rep.set("core.run_s", c.ctlSeconds)
	if c.ctlInsts > 0 {
		rep.set("core.ns_per_inst", c.ctlSeconds*1e9/c.ctlInsts)
	}
	rep.set("core.profiles", float64(c.profiles))
	rep.set("core.reconfigs", float64(c.reconfigs))
	rep.set("core.phase_changes", float64(c.phaseChanges))
}

// walkSource streams a program's phases in a given order, each for an
// equal share of the controller run (cmd/adaptsim's phase walk, in a
// seeded order), and accounts the host time spent generating.
type walkSource struct {
	gens     []*trace.Generator // in walk order
	perPhase int
	cur, n   int // current phase (index into gens), instructions taken from it
	buf      []trace.Inst
	pos      int
	busy     time.Duration
}

func newWalkSource(program string, order []int) (*walkSource, error) {
	w := &walkSource{perPhase: ctlIntervals * ctlIntervalInsts / len(order)}
	for _, ph := range order {
		g, err := trace.NewGenerator(program, ph)
		if err != nil {
			return nil, err
		}
		w.gens = append(w.gens, g)
	}
	return w, nil
}

// Next returns the next instruction of the walk.
func (w *walkSource) Next() trace.Inst {
	if w.pos == len(w.buf) {
		w.fill()
	}
	in := w.buf[w.pos]
	w.pos++
	return in
}

func (w *walkSource) fill() {
	t0 := time.Now()
	if w.buf == nil {
		w.buf = make([]trace.Inst, ctlChunk)
	}
	for i := range w.buf {
		if w.n == w.perPhase && w.cur < len(w.gens)-1 {
			w.cur++
			w.n = 0
		}
		w.n++
		w.buf[i] = w.gens[w.cur].Next()
	}
	w.pos = 0
	w.busy += time.Since(t0)
}
