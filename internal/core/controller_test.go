package core

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// countingSource counts its Next calls (atomically: the controller reads
// its source on another goroutine).
type countingSource struct {
	src   cpu.Source
	calls atomic.Int64
}

func (c *countingSource) Next() trace.Inst {
	c.calls.Add(1)
	return c.src.Next()
}

func walk(t testing.TB, program string, perPhase int) *trace.PhaseWalker {
	t.Helper()
	w, err := trace.NewPhaseWalker(program, perPhase)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runSequential is the controller loop with the monitor stage pulling
// each interval on the caller's goroutine, one Next at a time: the
// reference Run's read-ahead must reproduce.
func runSequential(c *Controller, src cpu.Source, nIntervals int) (*Report, error) {
	rep := &Report{}
	insts := make([]trace.Inst, c.opts.Interval)
	for iv := 0; iv < nIntervals; iv++ {
		for i := range insts {
			insts[i] = src.Next()
			c.det.Observe(insts[i])
		}
		changed := c.det.EndInterval()
		rec := IntervalRecord{Index: iv, PhaseChange: changed}
		if changed {
			rep.PhaseChanges++
		}
		if changed || iv == 0 {
			if err := c.profileAndPredict(insts, &rec, rep); err != nil {
				return nil, err
			}
		} else if err := c.runInterval(insts, c.current, cpu.Options{}, &rec); err != nil {
			return nil, err
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

func TestControllerRunMatchesSequential(t *testing.T) {
	pred := trainToyPredictor(t, counters.Advanced)
	opts := DefaultOptions()
	opts.Interval = 3000
	opts.SampledSets = 32
	opts.OverheadScale = 0.02
	const intervals = 9
	newCtl := func() *Controller {
		c, err := NewController(pred, opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	want, err := runSequential(newCtl(), walk(t, "gap", 2*opts.Interval), intervals)
	if err != nil {
		t.Fatal(err)
	}
	if want.PhaseChanges == 0 {
		t.Fatal("reference walk never changed phase; the test would not cover re-profiling")
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		src := &countingSource{src: walk(t, "gap", 2*opts.Interval)}
		got, err := newCtl().Run(src, intervals)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d: read-ahead report differs from the sequential loop:\n got %+v\nwant %+v", procs, got, want)
		}
		if n := src.calls.Load(); n != intervals*int64(opts.Interval) {
			t.Fatalf("GOMAXPROCS=%d: source saw %d Next calls, want exactly %d", procs, n, intervals*opts.Interval)
		}
	}
}

func TestControllerRunErrorLeavesNoReader(t *testing.T) {
	// Reconfiguration stalls scaled past the cycle limit fail the first
	// interval's profiling run while the read-ahead is filling the next
	// intervals. Run must return with its reader joined.
	pred := trainToyPredictor(t, counters.Basic)
	opts := DefaultOptions()
	opts.Interval = 2000
	opts.OverheadScale = 1e9
	ctl, err := NewController(pred, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	src := &countingSource{src: walk(t, "mcf", 4000)}
	if _, err := ctl.Run(src, 50); err == nil {
		t.Fatal("run past the cycle limit succeeded")
	}
	calls := src.calls.Load()
	time.Sleep(20 * time.Millisecond)
	if after := src.calls.Load(); after != calls {
		t.Fatalf("source read %d more times after Run returned", after-calls)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after an error return, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
