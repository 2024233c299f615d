// Command perfbench is the repository's end-to-end benchmark. One command
// runs one of three workloads, each driving the program's layers through
// their public Go APIs and timing them from outside:
//
//   - pipeline: the `report -skip-slow` sequence (dataset build against a
//     fresh store, LOOCV for both counter sets, every table and figure)
//     at DefaultScale physics on 8 programs x 2 phases;
//   - controller: the runtime controller (monitor, profile, predict,
//     reconfigure) over 8 held-out programs, against the best static
//     configuration on the same instruction stream;
//   - serve: the predictor behind its HTTP handler on loopback, under an
//     open-loop Poisson load at two fixed rates plus a capacity search.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload pipeline|controller|serve --seed N --seconds S --trace 0|1
//
// A run sets the workload up several times (setup_s is the median), then
// repeats the workload's measured pass until S seconds have passed and
// reports medians. Every output is checked; the last line of stdout is
// one JSON object with the run's correctness, attempt and failure counts
// and its metrics. With --trace 0 the metrics are the end-to-end metrics
// of BENCHMARK.json, measured with tracing off. With --trace 1 the run
// instead sets up and runs one pass untraced, then one set-up and pass
// with the program's tracer on, and prints the per-layer metrics of
// BENCHMARK.json from that traced section (plus the tracing overhead);
// the spans are written as Chrome trace JSON under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"
)

// scratchRoot holds everything a run writes: stores, digest records and
// traces. It is relative to the repository root the benchmark runs from.
const scratchRoot = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: pipeline, controller or serve")
	seed := fs.Uint64("seed", 0, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "seconds of measured passes (at least one pass always runs)")
	traceMode := fs.Int("trace", 0, "1 prints per-layer metrics from a traced pass instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*name]
	if !ok || *traceMode < 0 || *traceMode > 1 || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env := &runEnv{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceMode == 1,
		rep:      newReport(),
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env.dir, err = os.MkdirTemp(scratchRoot, fmt.Sprintf("run-%s-%d-", *name, *seed))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(env.dir)

	if err := runWorkload(context.Background(), def, env); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	section := spec.EndToEnd
	if env.traced {
		section = spec.PerLayer
	}
	line, err := env.rep.finalLine(section)
	if err != nil {
		env.rep.writeTable(stderr)
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env.rep.writeTable(stdout)
	fmt.Fprintln(stdout, line)
	return 0
}

// runEnv is one benchmark run's parameters and accumulated report.
type runEnv struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	dir      string // private scratch directory, removed at exit
	rep      *report
}

// runID names the run in span arguments and file names.
func (e *runEnv) runID() string { return fmt.Sprintf("%s-seed%d", e.workload, e.seed) }

// instance is one set-up workload, ready to run measured passes.
type instance interface {
	// pass runs one unit of measured work, checks its outputs and records
	// them (attempts, failures, quality metrics) in rep.
	pass(ctx context.Context, rep *report) error
	// after runs once after the measured passes, untimed: measurements
	// that search rather than repeat (serve's capacity search).
	after(ctx context.Context, rep *report) error
	// layers records the per-layer metrics of the traced section from its
	// span tree and counter deltas.
	layers(rep *report, tree *spanTree, d counterDelta)
	close() error
}

// workloadDef sets a workload up. setupReps set-ups run per untraced run;
// setup_s is their median.
type workloadDef struct {
	setupReps int
	setup     func(ctx context.Context, env *runEnv) (instance, error)
}

var workloads = map[string]workloadDef{
	"pipeline":   {setupReps: 9, setup: setupPipeline},
	"controller": {setupReps: 2, setup: setupController},
	"serve":      {setupReps: 3, setup: setupServe},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprintf("%v", names)
}

// counterDelta is the change of the program's repro_* counters over the
// traced section.
type counterDelta struct{ before, after counterSnapshot }

func (d counterDelta) get(name string) float64 { return delta(d.before, d.after, name) }

// runWorkload performs one benchmark run: set-ups, measured passes, and,
// when traced, the traced section.
func runWorkload(ctx context.Context, def workloadDef, env *runEnv) error {
	rep := env.rep
	reps := def.setupReps
	if env.traced {
		reps = 1
		// Layers this workload does not exercise read 0.
		for _, m := range catalogue {
			if !m.endToEnd() {
				rep.set(m.Name, 0)
			}
		}
	}
	var inst instance
	closeInst := func() error {
		if inst == nil {
			return nil
		}
		err := inst.close()
		inst = nil
		return err
	}
	defer closeInst()
	var setups []float64
	for i := 0; i < reps; i++ {
		if err := closeInst(); err != nil {
			return err
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(ctx, env); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", Median(setups))
	rep.summaries["setup_s"] = Summarize(setups)

	var walls, cpus []float64
	start := time.Now()
	for len(walls) == 0 || (!env.traced && time.Since(start).Seconds() < env.seconds) {
		p0, t0 := readProc(), time.Now()
		if err := inst.pass(ctx, rep); err != nil {
			return fmt.Errorf("pass: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, readProc().sub(p0).cpu.Seconds())
	}
	rep.set("wall_s", Median(walls))
	rep.set("cpu_s", Median(cpus))
	rep.summaries["wall_s"] = Summarize(walls)
	rep.summaries["cpu_s"] = Summarize(cpus)
	rep.note(fmt.Sprintf("pass wall seconds: %.3f", walls))
	if err := inst.after(ctx, rep); err != nil {
		return err
	}

	if env.traced {
		if err := closeInst(); err != nil {
			return err
		}
		var err error
		if inst, err = tracedSection(ctx, def, env, walls[0]); err != nil {
			return err
		}
	}
	rep.set("max_rss_mb", maxRSSMB())
	if rep.attempted > 0 {
		rep.set("ok_frac", 1-float64(rep.failed)/float64(rep.attempted))
	}
	return closeInst()
}

// tracedSection sets the workload up and runs one pass with the program's
// tracer on, then derives the per-layer metrics and writes the trace. It
// returns the traced instance for the caller to close.
func tracedSection(ctx context.Context, def workloadDef, env *runEnv, untracedWall float64) (inst instance, err error) {
	rep := env.rep
	tracer.Reset()
	tracer.Enable()
	defer tracer.Disable()
	before, err := readCounters()
	if err != nil {
		return nil, err
	}
	p0 := readProc()
	root := span(env.workload).SetArg("run", env.runID())
	sp := span("setup")
	inst, err = def.setup(ctx, env)
	sp.Finish()
	if err != nil {
		root.Finish()
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer func() {
		if err != nil {
			inst.close() // the error that matters is err
			inst = nil
		}
	}()
	t0 := time.Now()
	sp = span("pass")
	err = inst.pass(ctx, rep)
	sp.Finish()
	wall := time.Since(t0).Seconds()
	root.Finish()
	if err != nil {
		return inst, fmt.Errorf("traced pass: %w", err)
	}
	proc := readProc().sub(p0)
	after, err := readCounters()
	if err != nil {
		return inst, err
	}
	tree, err := captureTree(tracer)
	if err != nil {
		return inst, err
	}
	rep.set("trace.overhead_s", wall-untracedWall)
	rep.set("proc.cpu_s", proc.cpu.Seconds())
	rep.set("proc.alloc_mb", float64(proc.alloc)/(1<<20))
	rep.set("proc.gc_count", float64(proc.gcs))
	inst.layers(rep, tree, counterDelta{before, after})

	path := filepath.Join(scratchRoot, fmt.Sprintf("trace-%s.json", env.runID()))
	if err = tree.writeChrome(path, env.runID()); err != nil {
		return inst, err
	}
	rep.note(fmt.Sprintf("trace: %d spans written to %s", len(tree.events), path))
	return inst, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's outcome.
type report struct {
	attempted int
	failed    int
	wrong     int // outputs that were produced but incorrect (also counted in failed)
	values    map[string]float64
	summaries map[string]Summary
	notes     []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, summaries: map[string]Summary{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(s string) { r.notes = append(r.notes, s) }

// attempt records one checked operation; ok false counts it as failed.
func (r *report) attempt(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check records one checked output; a mismatch counts as failed and
// makes the run incorrect.
func (r *report) check(ok bool, what string) {
	r.attempt(ok)
	if !ok {
		r.wrong++
		r.note("WRONG OUTPUT: " + what)
	}
}

// writeTable prints every recorded value and timing summary, one per
// line, for people; the final JSON line follows it.
func (r *report) writeTable(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("%-26s %16.6g %-8s", n, r.values[n], unitOf(n))
		if s, ok := r.summaries[n]; ok {
			line += "  " + s.String()
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-26s %16d\n%-26s %16d\n", "attempted", r.attempted, "failed", r.failed)
}

// finalLine renders the result object for the given metric section. Every
// metric of the section must have been measured, and every name must be
// well formed.
func (r *report) finalLine(section []specMetric) (string, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if r.attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	for _, m := range section {
		v, ok := r.values[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %q of BENCHMARK.json was not measured", m.Name)
		}
		if !validName(m.Name) {
			return "", fmt.Errorf("metric name %q is not made of letters, digits, '_', '.' and '-'", m.Name)
		}
		if m.Unit != unitOf(m.Name) {
			return "", fmt.Errorf("metric %q has unit %q in BENCHMARK.json but %q here", m.Name, m.Unit, unitOf(m.Name))
		}
		out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(s string) bool { return nameRE.MatchString(s) }

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark checks itself
// against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &s, nil
}
