package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/serve"
)

// fakeServer answers every predict with the baseline configuration after
// a fixed delay.
func fakeServer(t *testing.T, delay time.Duration) *httptest.Server {
	t.Helper()
	body := "{\"config\":{"
	base := arch.Baseline()
	for p := arch.Param(0); p < arch.NumParams; p++ {
		if p > 0 {
			body += ","
		}
		body += fmt.Sprintf("%q:%d", p.String(), base[p])
	}
	body += "}}"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// With one sender and three arrivals due at once, the second and third
// wait for the first: latency from the due time includes that wait, and
// the lag shows how late each was sent.
func TestReplayTimesFromDueTime(t *testing.T) {
	const delay = 30 * time.Millisecond
	srv := fakeServer(t, delay)
	lc := newLoadClient(srv.URL, [][]byte{[]byte(`{}`)}, []arch.Config{arch.Baseline()})
	defer lc.close()
	lc.clients = lc.clients[:1]
	w := lc.replay([]serve.Arrival{{}, {}, {}}, false)
	for i, o := range w.outcomes {
		if !o.ok || o.code != http.StatusOK {
			t.Fatalf("request %d: %+v", i, o)
		}
		minLat := float64((i+1)*int(delay)) / 1e6
		minLag := float64(i*int(delay)) / 1e6
		if o.latMS < minLat || o.lagMS < minLag {
			t.Errorf("request %d: latency %.1f ms, lag %.1f ms; want at least %.0f and %.0f",
				i, o.latMS, o.lagMS, minLat, minLag)
		}
	}
	if w.failures() != 0 {
		t.Errorf("failures = %d", w.failures())
	}
}

// Open-loop arrivals are sent at their due times, not back to back.
func TestReplayKeepsTheSchedule(t *testing.T) {
	srv := fakeServer(t, 0)
	lc := newLoadClient(srv.URL, [][]byte{[]byte(`{}`)}, []arch.Config{arch.Baseline()})
	defer lc.close()
	w := lc.replay([]serve.Arrival{{At: 0}, {At: 40 * time.Millisecond}}, false)
	if w.wall < 40*time.Millisecond {
		t.Errorf("window took %v, want at least the 40ms schedule", w.wall)
	}
	for i, o := range w.outcomes {
		if o.latMS > 30 {
			t.Errorf("request %d: latency %.1f ms counts time before it was due", i, o.latMS)
		}
	}
}

func TestWrongDecisionIsCaught(t *testing.T) {
	srv := fakeServer(t, 0)
	want := arch.Baseline()
	want[arch.Width]++ // not what the server answers
	lc := newLoadClient(srv.URL, [][]byte{[]byte(`{}`)}, []arch.Config{want})
	defer lc.close()
	w := lc.replay([]serve.Arrival{{}}, true)
	o := w.outcomes[0]
	if o.ok || !o.wrong || o.latMS != float64(clientTimeout)/1e6 {
		t.Errorf("outcome %+v: want a wrong answer recorded at the client timeout", o)
	}
	rep := newReport()
	w.record(rep, "test")
	if rep.wrong != 1 || rep.failed != 1 {
		t.Errorf("report wrong %d failed %d, want 1 1", rep.wrong, rep.failed)
	}
}

func TestBacklogGrew(t *testing.T) {
	steady, growing := window{}, window{}
	for i := 0; i < 100; i++ {
		steady.outcomes = append(steady.outcomes, outcome{lagMS: 0.2})
		growing.outcomes = append(growing.outcomes, outcome{lagMS: float64(i) / 10})
	}
	if steady.backlogGrew() || !growing.backlogGrew() {
		t.Error("backlogGrew should flag only the growing lag")
	}
}
