package cpu

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/trace"
)

// countingSource counts its Next calls. calls is atomic so a test can
// watch it while a producer goroutine may still be running.
type countingSource struct {
	src     Source
	calls   atomic.Int64
	panicAt int64 // if > 0, the panicAt-th call panics
	stallAt int64 // if > 0, the stallAt-th call sleeps for stall
	stall   time.Duration
}

type sourcePanic struct{ call int64 }

func (c *countingSource) Next() trace.Inst {
	n := c.calls.Add(1)
	if n == c.panicAt {
		panic(sourcePanic{n})
	}
	if n == c.stallAt {
		time.Sleep(c.stall)
	}
	return c.src.Next()
}

func countedGen(t testing.TB, program string, phase int) *countingSource {
	t.Helper()
	g, err := trace.NewGenerator(program, phase)
	if err != nil {
		t.Fatal(err)
	}
	return &countingSource{src: g}
}

// settled waits for the goroutine count to fall back to want: a joined
// goroutine may still be unwinding when the join returns.
func settled(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReadAheadChunksTheStream(t *testing.T) {
	const n, chunk = 10_000, 4096
	want := mkTrace(t, "mcf", 2, n)
	src := countedGen(t, "mcf", 2)
	ra := NewReadAhead(src, n, chunk)
	defer ra.Close()
	var got []trace.Inst
	for len(got) < n {
		buf := ra.Next()
		if len(buf) != min(chunk, n-len(got)) {
			t.Fatalf("chunk of %d at %d, want %d", len(buf), len(got), min(chunk, n-len(got)))
		}
		got = append(got, buf...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("read-ahead chunks differ from the stream")
	}
	ra.Close()
	ra.Close() // idempotent
	if c := src.calls.Load(); c != n {
		t.Fatalf("source saw %d Next calls, want exactly %d", c, n)
	}
}

func TestRunSourceMatchesSliceSource(t *testing.T) {
	// The read-ahead path and the slice path must simulate the identical
	// stream: same Result bit for bit, with and without a warmup prefix,
	// and with counters, on lengths that are not multiples of the chunk.
	cases := []struct {
		name string
		n    int
		opts Options
	}{
		{"plain", 9001, Options{}},
		{"warmup", 9001, Options{WarmupInsts: 5003}},
		{"warmup-collect", 6007, Options{WarmupInsts: 4096, Collect: true, SampledSets: 16, FlushCaches: true}},
		{"short", 17, Options{WarmupInsts: 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			insts := mkTrace(t, "gcc", 4, c.opts.WarmupInsts+c.n)
			s, err := New(arch.Baseline())
			if err != nil {
				t.Fatal(err)
			}
			ss := NewSliceSource(insts)
			want, err := s.Run(ss, c.n, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if pos := ss.pos; pos != 0 {
				t.Fatalf("slice source left at %d, want 0 (wrapped after the whole slice)", pos)
			}

			src := countedGen(t, "gcc", 4)
			s, err = New(arch.Baseline())
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Run(src, c.n, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Source-fed result differs from the SliceSource run:\n got %+v\nwant %+v", got, want)
			}
			if calls := src.calls.Load(); calls != int64(c.opts.WarmupInsts+c.n) {
				t.Fatalf("source saw %d Next calls, want exactly %d", calls, c.opts.WarmupInsts+c.n)
			}
		})
	}
}

func TestRunSourcePanicReachesCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	src := countedGen(t, "art", 1)
	src.panicAt = 7000
	s, err := New(arch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	var got any
	func() {
		defer func() { got = recover() }()
		s.Run(src, 20_000, Options{WarmupInsts: 2000})
	}()
	if got != (sourcePanic{7000}) {
		t.Fatalf("recovered %v on the caller's goroutine, want the source's panic", got)
	}
	settled(t, base)
}

func TestRunErrorLeavesNoReader(t *testing.T) {
	// A start stall beyond the cycle limit fails the measured part after
	// the warmup prefix has run, while the reader is inside Next filling
	// the second chunk. Run must return with its reader joined: no
	// goroutine left, and no Next call after Run returns.
	base := runtime.NumGoroutine()
	src := countedGen(t, "swim", 0)
	src.stallAt, src.stall = readAheadChunk+100, 300*time.Millisecond
	s, err := New(arch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	_, err = s.Run(src, n, Options{WarmupInsts: 3000, StartStall: n*maxCyclesPerInst + 200_000})
	if err == nil {
		t.Fatal("run past the cycle limit succeeded")
	}
	calls := src.calls.Load()
	time.Sleep(2 * src.stall)
	if after := src.calls.Load(); after != calls {
		t.Fatalf("source read %d more times after Run returned", after-calls)
	}
	settled(t, base)
}
