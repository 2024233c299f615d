package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestEachRunsEveryIndexOnce checks the basic contract at one and four
// procs: every index runs exactly once and the call reports success.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		const n = 1000
		var calls [n]atomic.Int32
		if err := Each(context.Background(), n, func(i int) { calls[i].Add(1) }); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("procs=%d: index %d ran %d times", procs, i, c)
			}
		}
	}
}

func TestEachEmpty(t *testing.T) {
	if err := Each(context.Background(), 0, func(int) { t.Error("fn called for n=0") }); err != nil {
		t.Fatal(err)
	}
}

// TestEachUsesGOMAXPROCSGoroutines checks the fan-out width: with four
// procs, four calls are in flight at once (they rendezvous), and never
// more than four.
func TestEachUsesGOMAXPROCSGoroutines(t *testing.T) {
	withProcs(t, 4)
	var inFlight, peak atomic.Int32
	var arrived sync.WaitGroup
	arrived.Add(4)
	rendezvous := make(chan struct{})
	go func() { arrived.Wait(); close(rendezvous) }()
	err := Each(context.Background(), 12, func(i int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		if i < 4 {
			arrived.Done()
			select {
			case <-rendezvous:
			case <-time.After(5 * time.Second):
				t.Error("the first four indices never ran concurrently")
			}
		}
		inFlight.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 4 {
		t.Errorf("peak concurrency %d, want 4", p)
	}
}

func TestEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Each(ctx, 10, func(int) { t.Error("fn called under a cancelled context") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEachStopsClaimingOnCancel cancels from inside fn at index k. Every
// index past k blocks until the cancellation, so each goroutine other
// than k's can have started at most one of them: no index beyond
// k+procs-1 may run, and Each must report the cancellation.
func TestEachStopsClaimingOnCancel(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		const n, k = 200, 37
		ctx, cancel := context.WithCancel(context.Background())
		var maxRan atomic.Int64
		maxRan.Store(-1)
		err := Each(ctx, n, func(i int) {
			for {
				m := maxRan.Load()
				if int64(i) <= m || maxRan.CompareAndSwap(m, int64(i)) {
					break
				}
			}
			switch {
			case i == k:
				cancel()
			case i > k:
				<-ctx.Done()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		if m := maxRan.Load(); m < k || m > int64(k+procs-1) {
			t.Errorf("procs=%d: highest index run %d, want in [%d, %d]", procs, m, k, k+procs-1)
		}
	}
}
