package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// The benchmark's own spans go into the program's process-wide tracer, so
// they nest exactly with the spans the program records (the tracer parents
// each span on the innermost open one). The tracer is off outside a traced
// section; a span then costs one atomic load.
var tracer = obs.DefaultTracer()

// span opens a benchmark span around one layer call. Benchmark span names
// start with "bench." so they never collide with the program's.
func span(name string) *obs.Span { return tracer.Start("bench." + name) }

// event is one recorded span, decoded from the tracer's Chrome trace, with
// its place in the span tree.
type event struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // start, µs since the tracer epoch
	Dur  float64           `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`

	parent int // index of the enclosing span, -1 for a root
}

func (e event) end() float64 { return e.Ts + e.Dur }

// stage is the rollup key of a span name: its first space-separated token
// ("fold mcf" and "fold swim" are both stage "fold").
func stage(name string) string {
	head, _, _ := strings.Cut(name, " ")
	return head
}

// spanTree holds every span of a traced run in creation order.
type spanTree struct {
	events []event
}

// captureTree decodes the tracer's spans and rebuilds their hierarchy.
// Stack spans (tid 1) are created and finished in strict nesting order on
// one goroutine, so each one's parent is the innermost earlier span whose
// interval is still open at its start. Detached spans (tid 2, concurrent
// request handlers) are roots.
func captureTree(t *obs.Tracer) (*spanTree, error) {
	var buf bytes.Buffer
	if err := t.WriteChrome(&buf); err != nil {
		return nil, fmt.Errorf("exporting spans: %w", err)
	}
	return parseTree(buf.Bytes())
}

func parseTree(data []byte) (*spanTree, error) {
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("decoding spans: %w", err)
	}
	evs := doc.TraceEvents
	var stack []int
	for i := range evs {
		evs[i].parent = -1
		if evs[i].Tid != 1 {
			continue
		}
		for len(stack) > 0 && evs[stack[len(stack)-1]].end() <= evs[i].Ts {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			evs[i].parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	return &spanTree{events: evs}, nil
}

// selfUS returns span i's self time in µs: its duration minus the part of
// its interval that its direct children cover.
func (t *spanTree) selfUS(i int) float64 {
	type iv struct{ lo, hi float64 }
	var kids []iv
	for _, e := range t.events {
		if e.parent == i {
			kids = append(kids, iv{e.Ts, e.end()})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
	covered, curLo, curHi := 0.0, 0.0, -1.0
	for _, k := range kids {
		if k.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = k.lo, k.hi
		} else if k.hi > curHi {
			curHi = k.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	self := t.events[i].Dur - covered
	if self < 0 {
		return 0
	}
	return self
}

// durations returns the durations in seconds of every span of the stage,
// excluding spans nested under a span of the same stage ("search" holds
// "search mcf/0"), so a recursive stage is not counted twice.
func (t *spanTree) durations(stageName string) []float64 {
	var out []float64
	for i, e := range t.events {
		if stage(e.Name) == stageName && !t.underStage(i, stageName) {
			out = append(out, e.Dur/1e6)
		}
	}
	return out
}

// total returns the summed duration in seconds of a stage's outermost
// spans.
func (t *spanTree) total(stageName string) float64 {
	sum := 0.0
	for _, d := range t.durations(stageName) {
		sum += d
	}
	return sum
}

// self returns the summed self time in seconds of every span of a stage.
func (t *spanTree) self(stageName string) float64 {
	sum := 0.0
	for i, e := range t.events {
		if stage(e.Name) == stageName {
			sum += t.selfUS(i)
		}
	}
	return sum / 1e6
}

func (t *spanTree) underStage(i int, stageName string) bool {
	for p := t.events[i].parent; p >= 0; p = t.events[p].parent {
		if stage(t.events[p].Name) == stageName {
			return true
		}
	}
	return false
}

// writeChrome writes every span as Chrome trace_event JSON (open with
// chrome://tracing or ui.perfetto.dev). Each span carries the run id, its
// own id and its parent's id (-1 for a root) as arguments.
func (t *spanTree) writeChrome(path, runID string) error {
	out := make([]event, len(t.events))
	for i, e := range t.events {
		args := map[string]string{}
		for k, v := range e.Args {
			args[k] = v
		}
		args["run"] = runID
		args["id"] = strconv.Itoa(i)
		args["parent"] = strconv.Itoa(e.parent)
		e.Args = args
		out[i] = e
	}
	data, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{out})
	if err != nil {
		return fmt.Errorf("encoding the trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	return nil
}
