package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json and the catalogue must list the same metrics with the
// same units, directions and bounds, every name must be well formed, and
// every workload must exist.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []specMetric
	listed = append(listed, spec.EndToEnd...)
	listed = append(listed, spec.PerLayer...)
	if len(listed) != len(catalogue) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the catalogue %d", len(listed), len(catalogue))
	}
	seen := map[string]bool{}
	for i, m := range listed {
		if m != catalogue[i] {
			t.Errorf("BENCHMARK.json metric %d is %+v, the catalogue's %+v", i, m, catalogue[i])
		}
		if !validName(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(m.Unit) {
			t.Errorf("metric %s: malformed unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if !m.endToEnd() || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g must be in (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok || !validName(w.Name) {
			t.Errorf("workload %q is unknown or malformed", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func TestFinalLineNeedsEveryMetric(t *testing.T) {
	section := []specMetric{{Name: "wall_s", Unit: "s"}, {Name: "cpu_s", Unit: "s"}}
	r := newReport()
	r.attempt(true)
	r.set("wall_s", 1.5)
	if _, err := r.finalLine(section); err == nil {
		t.Error("a missing metric must be an error")
	}
	r.set("cpu_s", 1.25)
	line, err := r.finalLine(section)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 1 || got.Failed != 0 || got.Metrics["cpu_s"] != (metric{1.25, "s"}) || len(got.Metrics) != 2 {
		t.Errorf("final line %s", line)
	}
	if _, err := r.finalLine([]specMetric{{Name: "bad name", Unit: "s"}}); err == nil {
		t.Error("a malformed name must be an error")
	}
	if _, err := newReport().finalLine(nil); err == nil {
		t.Error("a run with no attempts must be an error")
	}
}

func TestWrongOutputMakesTheRunIncorrect(t *testing.T) {
	r := newReport()
	r.check(true, "x")
	r.check(false, "y")
	if r.attempted != 2 || r.failed != 1 || r.wrong != 1 {
		t.Errorf("attempted %d failed %d wrong %d, want 2 1 1", r.attempted, r.failed, r.wrong)
	}
	r.set("wall_s", 1)
	line, err := r.finalLine([]specMetric{{Name: "wall_s", Unit: "s"}})
	if err != nil || !strings.HasPrefix(line, `{"correct":false`) {
		t.Errorf("line %s, err %v: want correct false", line, err)
	}
}
