package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
)

// tailLadder lists the percentiles a Summary may report as its tail,
// highest first. A percentile is reported only when at least minBeyond
// samples lie beyond it, so a tail is never read off a handful of points.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75}

const minBeyond = 10

// Summary is a timing distribution as the benchmark reports it: the
// median, the highest percentile of tailLadder with at least minBeyond
// samples beyond it (TailPct 0 when there are too few samples for any),
// and the sample count.
type Summary struct {
	N       int
	Median  float64
	TailPct float64
	Tail    float64
}

// Summarize computes the Summary of xs; xs is not modified.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	for _, p := range tailLadder {
		if float64(len(sorted))*(100-p)/100 >= minBeyond-1e-9 { // tolerate 99.9's rounding
			s.TailPct, s.Tail = p, percentileSorted(sorted, p)
			break
		}
	}
	return s
}

// String renders the summary for the human-readable table.
func (s Summary) String() string {
	if s.TailPct == 0 {
		return fmt.Sprintf("median %.6g (n=%d, too few samples for a tail)", s.Median, s.N)
	}
	return fmt.Sprintf("median %.6g p%g %.6g (n=%d)", s.Median, s.TailPct, s.Tail, s.N)
}

// median returns the median of an ascending slice (the mean of the two
// middle values for an even count).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Median returns the median of xs; xs is not modified.
func Median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return median(sorted)
}

// Percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty slice); xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate p's binary rounding
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// GeoMean returns the geometric mean of positive values (0 if any value
// is not positive or xs is empty).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// procStats is a snapshot of process-wide resource use.
type procStats struct {
	cpu   time.Duration // user + system CPU time
	alloc uint64        // cumulative heap bytes allocated
	gcs   uint32        // completed GC cycles
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
	}
}

func (p procStats) sub(q procStats) procStats {
	return procStats{cpu: p.cpu - q.cpu, alloc: p.alloc - q.alloc, gcs: p.gcs - q.gcs}
}

// maxRSSMB returns the peak resident set size of this process so far, in
// MiB (Linux reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

// counterSnapshot reads every plain counter and gauge of the program's
// process-wide registry (the repro_* series) by name.
type counterSnapshot map[string]float64

func readCounters() (counterSnapshot, error) {
	data, err := obs.DefaultRegistry().JSON()
	if err != nil {
		return nil, fmt.Errorf("reading the metric registry: %w", err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("decoding the metric registry: %w", err)
	}
	out := counterSnapshot{}
	for name, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil { // vecs and histograms are objects; skip them
			out[name] = f
		}
	}
	return out, nil
}

// delta returns after[name] - before[name].
func delta(before, after counterSnapshot, name string) float64 {
	return after[name] - before[name]
}
