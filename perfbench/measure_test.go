package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestSummarizeTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		tailPct float64
		tail    float64
		median  float64
	}{
		{n: 1, median: 1},
		{n: 39, median: 20},                          // 25% of 39 is 9.75 < 10: no tail
		{n: 40, tailPct: 75, tail: 30, median: 20.5}, // 10 beyond p75
		{n: 100, tailPct: 90, tail: 90, median: 50.5},
		{n: 999, tailPct: 95, tail: 950, median: 500},
		{n: 1000, tailPct: 99, tail: 990, median: 500.5},
		{n: 10000, tailPct: 99.9, tail: 9990, median: 5000.5},
	} {
		s := Summarize(seq(tc.n))
		if s.N != tc.n || s.TailPct != tc.tailPct || s.Tail != tc.tail || s.Median != tc.median {
			t.Errorf("n=%d: got %+v, want median %g p%g=%g", tc.n, s, tc.median, tc.tailPct, tc.tail)
		}
	}
}

func TestSummarizeLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	Median(xs)
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestSummaryStringStatesSampleCount(t *testing.T) {
	if s := Summarize(seq(5)).String(); !strings.Contains(s, "n=5") || !strings.Contains(s, "too few") {
		t.Errorf("short summary %q should give n and say there is no tail", s)
	}
	if s := Summarize(seq(1000)).String(); !strings.Contains(s, "p99 990") || !strings.Contains(s, "n=1000") {
		t.Errorf("summary %q should give p99 and n", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 20: 1, 21: 2, 50: 3, 99: 5, 100: 5} {
		if got := Percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if Percentile(nil, 50) != 0 || Median(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

// A failed request is recorded at the client timeout, so it lands in the
// tail and a limit below the timeout sees it as missed.
func TestFailuresCountAsMissingTheLimit(t *testing.T) {
	w := window{}
	for i := 0; i < 1000; i++ {
		w.outcomes = append(w.outcomes, outcome{latMS: 1, ok: true})
	}
	for i := 0; i < 11; i++ {
		w.outcomes[i] = outcome{latMS: float64(clientTimeout) / 1e6}
	}
	if got := Percentile(w.latencies(), 99); got <= latencyLimitMS {
		t.Errorf("p99 with 1.1%% failures = %g ms, want above the %g ms limit", got, latencyLimitMS)
	}
	if w.failures() != 11 {
		t.Errorf("failures = %d, want 11", w.failures())
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean = %g, want 4", got)
	}
	if GeoMean([]float64{1, 0}) != 0 || GeoMean(nil) != 0 {
		t.Error("GeoMean of a non-positive or empty input should be 0")
	}
}

func TestCounterDeltas(t *testing.T) {
	before, err := readCounters()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := before["repro_sim_instructions_total"]; !ok {
		t.Fatal("the simulator's instruction counter is not in the registry")
	}
	after := counterSnapshot{"repro_sim_instructions_total": before["repro_sim_instructions_total"] + 7}
	if d := delta(before, after, "repro_sim_instructions_total"); d != 7 {
		t.Errorf("delta = %g, want 7", d)
	}
}
