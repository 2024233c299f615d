package cpu

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/trace"
)

// poison scrambles everything v holds that is not a pointer: every
// scalar, every array element, each slice's whole backing array up to its
// capacity, and the slice's length (to anything up to its capacity). A
// third of the scalars keep their stale value from the previous run, a
// third get full-width garbage and a third a small number, so both stale
// state and plausible-looking garbage (a tag, a count, an index) reach
// whatever the reset misses. Pointers, interfaces and maps are left
// alone; callers poison the structs behind them explicitly. Unexported
// fields are written through their addresses.
func poison(rng *rand.Rand, v reflect.Value) {
	garbage := func() (uint64, bool) {
		switch rng.IntN(3) {
		case 0:
			return 0, false
		case 1:
			return rng.Uint64(), true
		default:
			return rng.Uint64N(4), true
		}
	}
	switch v.Kind() {
	case reflect.Bool:
		if g, ok := garbage(); ok {
			v.SetBool(g&1 == 1)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if g, ok := garbage(); ok {
			v.SetInt(int64(g))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if g, ok := garbage(); ok {
			v.SetUint(g)
		}
	case reflect.Float32, reflect.Float64:
		if g, ok := garbage(); ok {
			v.SetFloat(math.Float64frombits(g))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			poison(rng, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			poison(rng, reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	case reflect.Slice:
		n := v.Cap()
		if n == 0 {
			return
		}
		full := v.Slice3(0, n, n)
		for i := 0; i < n; i++ {
			poison(rng, full.Index(i))
		}
		v.SetLen(rng.IntN(n + 1))
	}
}

// poisonIdle fills every idle simulator's memory with garbage: its own
// fields, the run state (ROB entries, wakeup ring and far list, consumer
// chains, write-port reservations, fetch buffer), the three caches' tags
// and LRU ages, and the PHT and BTB. It returns how many there were.
func poisonIdle(rng *rand.Rand) int {
	idle.Lock()
	defer idle.Unlock()
	for _, s := range idle.sims {
		for _, v := range []any{s, s.scratch, s.hier.L1I, s.hier.L1D, s.hier.L2, s.bp} {
			poison(rng, reflect.ValueOf(v).Elem())
		}
	}
	return len(idle.sims)
}

// maxConfig takes every parameter's largest value.
func maxConfig() arch.Config {
	var ix [arch.NumParams]int
	for p := arch.Param(0); p < arch.NumParams; p++ {
		ix[p] = arch.DomainSize(p) - 1
	}
	return arch.FromIndices(ix)
}

// TestRecycledArenaIdentity runs the golden cases through recycled
// simulators whose memory was filled with garbage before every reuse. A
// minimal or maximal configuration runs and is recycled before each case,
// alternating, so every case reshapes an arena that was last grown or
// shrunk in every structure: ROB, caches, gshare, BTB. The pinned digests
// must still match: a recycled simulator is indistinguishable from a
// fresh one.
func TestRecycledArenaIdentity(t *testing.T) {
	want := readGolden(t)
	rng := rand.New(rand.NewPCG(0xa2e7a, 1))
	shapers := []arch.Config{maxConfig(), arch.MinConfig()}
	for i, gc := range goldenCases() {
		insts := mkTrace(t, gc.program, gc.phase, gc.n)
		if _, err := RunOnce(shapers[i%2], insts[:500], Options{}); err != nil {
			t.Fatal(err)
		}
		if poisonIdle(rng) == 0 {
			t.Fatal("RunOnce left no idle simulator to recycle")
		}
		res, err := RunOnce(gc.cfg, insts, gc.opts)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		var c canon
		c.result(res)
		if got := c.digest(); got != want[gc.name] {
			t.Errorf("%s: recycled digest %s != golden %s", gc.name, got, want[gc.name])
		}
		poisonIdle(rng)
	}
}

// TestRunOnceConcurrent recycles simulators from many goroutines at once,
// each running the golden cases in its own order; every digest must match
// its pin. Under -race it also checks the idle list and that no simulator
// is shared between goroutines.
func TestRunOnceConcurrent(t *testing.T) {
	want := readGolden(t)
	cases := goldenCases()
	traces := make([][]trace.Inst, len(cases))
	for i, gc := range cases {
		traces[i] = mkTrace(t, gc.program, gc.phase, gc.n)
	}
	const workers = 6
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range cases {
				i := (j*5 + w*7) % len(cases)
				gc := cases[i]
				res, err := RunOnce(gc.cfg, traces[i], gc.opts)
				if err != nil {
					errs[w] = fmt.Errorf("%s: %w", gc.name, err)
					return
				}
				var c canon
				c.result(res)
				if got := c.digest(); got != want[gc.name] {
					errs[w] = fmt.Errorf("%s: digest %s != golden %s", gc.name, got, want[gc.name])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	idle.Lock()
	n := len(idle.sims)
	idle.Unlock()
	if max := runtime.GOMAXPROCS(0); n > max {
		t.Errorf("%d idle simulators retained, want at most GOMAXPROCS=%d", n, max)
	}
}

// TestDropIdle checks DropIdle empties the idle list.
func TestDropIdle(t *testing.T) {
	insts := mkTrace(t, "gzip", 0, 500)
	if _, err := RunOnce(arch.Baseline(), insts, Options{}); err != nil {
		t.Fatal(err)
	}
	DropIdle()
	idle.Lock()
	defer idle.Unlock()
	if len(idle.sims) != 0 {
		t.Fatalf("%d idle simulators after DropIdle", len(idle.sims))
	}
}
