package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// A hand-built trace: root [0,100) holds "a x" [10,40), b [40,60) and c
// [70,80); b holds "a y" [41,45). A detached span (tid 2) never nests.
const sampleTrace = `{"traceEvents":[
 {"name":"root","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
 {"name":"a x","ph":"X","ts":10,"dur":30,"pid":1,"tid":1},
 {"name":"b","ph":"X","ts":40,"dur":20,"pid":1,"tid":1},
 {"name":"a y","ph":"X","ts":41,"dur":4,"pid":1,"tid":1},
 {"name":"http","ph":"X","ts":50,"dur":5,"pid":1,"tid":2},
 {"name":"c","ph":"X","ts":70,"dur":10,"pid":1,"tid":1}
]}`

func TestParseTreeNestsStackSpans(t *testing.T) {
	tree, err := parseTree([]byte(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{-1, 0, 0, 2, -1, 0}
	for i, e := range tree.events {
		if e.parent != want[i] {
			t.Errorf("%s: parent %d, want %d", e.Name, e.parent, want[i])
		}
	}
	// root's children cover [10,60) and [70,80): 60 µs of 100.
	if got := tree.selfUS(0); !near(got, 40) {
		t.Errorf("root self = %g µs, want 40", got)
	}
	if got := tree.selfUS(2); !near(got, 16) {
		t.Errorf("b self = %g µs, want 16", got)
	}
	// Stage "a" holds "a x" and "a y"; "a y" is not under another "a".
	if got := tree.total("a"); !near(got, 34e-6) {
		t.Errorf("total(a) = %g s, want 34e-6", got)
	}
	if got := tree.self("a"); !near(got, 34e-6) {
		t.Errorf("self(a) = %g s, want 34e-6", got)
	}
}

func TestOverlappingChildrenCountOnce(t *testing.T) {
	tree := &spanTree{events: []event{
		{Name: "p", Ts: 0, Dur: 100, parent: -1},
		{Name: "c", Ts: 10, Dur: 50, parent: 0},
		{Name: "c", Ts: 20, Dur: 20, parent: 0},
		{Name: "c", Ts: 50, Dur: 30, parent: 0},
	}}
	if got := tree.selfUS(0); !near(got, 30) {
		t.Errorf("self = %g µs, want 30 (children cover [10,80))", got)
	}
}

func TestSameStageNestingCountsOnce(t *testing.T) {
	tree := &spanTree{events: []event{
		{Name: "search", Ts: 0, Dur: 100, parent: -1},
		{Name: "search mcf/0", Ts: 0, Dur: 60, parent: 0},
		{Name: "search mcf/1", Ts: 60, Dur: 40, parent: 0},
	}}
	if got := tree.durations("search"); len(got) != 1 || !near(got[0], 100e-6) {
		t.Errorf("durations = %v, want the outer span only", got)
	}
}

// The benchmark's spans and the program's share one tracer, so they nest
// exactly, and the written trace carries the run id and parents.
func TestTracerRoundTrip(t *testing.T) {
	tr := obs.NewTracer()
	tr.Enable()
	root := tr.Start("bench.work")
	child := tr.Start("fold mcf")
	time.Sleep(2 * time.Millisecond)
	child.Finish()
	root.Finish()
	tree, err := captureTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.events) != 2 || tree.events[1].parent != 0 {
		t.Fatalf("events %+v: want fold under bench.work", tree.events)
	}
	if got := tree.total("fold"); got < 2e-3 || got > tree.total("bench.work") {
		t.Errorf("fold total %g s: want >= 2ms and within its parent", got)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tree.writeChrome(path, "run-1"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for i, e := range doc.TraceEvents {
		wantParent := map[int]string{0: "-1", 1: "0"}[i]
		if e.Args["run"] != "run-1" || e.Args["parent"] != wantParent {
			t.Errorf("span %s args %v: want run run-1, parent %s", e.Name, e.Args, wantParent)
		}
	}
}
