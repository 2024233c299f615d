// Package par is the one fan-out primitive the pipeline uses: run
// independent, index-addressed pieces of work on every core, and leave
// every side effect to the caller's sequential code afterwards. Callers
// own their per-index result and error slices; because each index
// writes only its own slots, results are identical for any GOMAXPROCS.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines and returns once every call has returned. Indices are
// claimed in increasing order from a shared counter, and ctx is checked
// before each claim: once ctx is done no new index starts, so at most
// one in-flight call per goroutine finishes after the cancellation.
// Each returns ctx.Err() if any index was left unclaimed, nil when all
// n ran.
func Each(ctx context.Context, n int, fn func(i int)) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if next.Load() < int64(n) {
		return ctx.Err()
	}
	return nil
}
