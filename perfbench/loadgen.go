package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/serve"
)

// clientTimeout bounds one request. A request that fails, is refused or
// answers wrongly is recorded with this latency, so it misses any latency
// limit.
const clientTimeout = 5 * time.Second

// outcome is one request of an open-loop window. Latency is measured from
// the request's due time, so time a request spent waiting for a free
// sender counts; lag is how late the sender started it.
type outcome struct {
	latMS, lagMS float64
	code         int  // HTTP status, 0 on a transport failure
	ok           bool // answered 200 with the expected decision
	wrong        bool // answered 200 with another decision
}

// window is the result of replaying one arrival schedule.
type window struct {
	outcomes []outcome
	wall     time.Duration // first due time to last response
}

// loadClient is the benchmark's own open-loop generator: a fixed set of
// senders, one keep-alive connection each, that take arrivals in due
// order. Unlike serve.LoadGen.Run it starts no goroutine per arrival and
// times each request from its due time rather than its send time.
type loadClient struct {
	url     string
	bodies  [][]byte      // request body per pool index
	expect  []arch.Config // Engine.Predict's decision per pool index
	clients []*http.Client
}

// newLoadClient makes one sender per CPU, each pinned to one connection.
func newLoadClient(url string, bodies [][]byte, expect []arch.Config) *loadClient {
	lc := &loadClient{url: url, bodies: bodies, expect: expect}
	for i := 0; i < runtime.NumCPU(); i++ {
		lc.clients = append(lc.clients, &http.Client{
			Timeout: clientTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        1,
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		})
	}
	return lc
}

func (lc *loadClient) close() {
	for _, c := range lc.clients {
		c.CloseIdleConnections()
	}
}

// replay sends arrivals on schedule; with closed set, it ignores the
// schedule's times and sends each arrival as soon as a sender is free.
func (lc *loadClient) replay(arr []serve.Arrival, closed bool) window {
	out := make([]outcome, len(arr))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, cl := range lc.clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arr) {
					return
				}
				due := start
				if !closed {
					due = start.Add(arr[i].At)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				sent := time.Now()
				o := lc.send(cl, arr[i].Index)
				if !o.ok {
					o.latMS = float64(clientTimeout) / 1e6
				} else {
					o.latMS = float64(time.Since(due)) / 1e6
				}
				o.lagMS = float64(sent.Sub(due)) / 1e6
				out[i] = o
			}
		}(cl)
	}
	wg.Wait()
	return window{outcomes: out, wall: time.Since(start)}
}

// send posts one pool vector and checks the decision.
func (lc *loadClient) send(cl *http.Client, idx int) outcome {
	cfg, code, decoded := post(cl, lc.url, lc.bodies[idx])
	o := outcome{code: code}
	if code == http.StatusOK {
		o.ok = decoded && cfg == lc.expect[idx]
		o.wrong = !o.ok
	}
	return o
}

// post sends one predict request body and decodes the decision. code is
// the HTTP status, 0 when the request or the body read failed; decoded
// reports whether a 200 answer carried a value for every parameter.
func post(cl *http.Client, url string, body []byte) (cfg arch.Config, code int, decoded bool) {
	resp, err := cl.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return cfg, 0, false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return cfg, 0, false
	}
	var pr struct {
		Config map[string]int `json:"config"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &pr) != nil || len(pr.Config) != int(arch.NumParams) {
		return cfg, resp.StatusCode, false
	}
	for p := arch.Param(0); p < arch.NumParams; p++ {
		v, ok := pr.Config[p.String()]
		if !ok {
			return cfg, resp.StatusCode, false
		}
		cfg[p] = v
	}
	return cfg, resp.StatusCode, true
}

// status reads the server's GET /v1/status snapshot.
func (lc *loadClient) status() (*serve.StatusResponse, error) {
	resp, err := lc.clients[0].Get(lc.url + "/v1/status")
	if err != nil {
		return nil, fmt.Errorf("reading /v1/status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("reading /v1/status: HTTP %d", resp.StatusCode)
	}
	var st serve.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /v1/status: %w", err)
	}
	return &st, nil
}

// latencies returns a window's latencies in ms (failures at the client
// timeout).
func (w window) latencies() []float64 {
	out := make([]float64, len(w.outcomes))
	for i, o := range w.outcomes {
		out[i] = o.latMS
	}
	return out
}

// failures counts requests that were not answered correctly.
func (w window) failures() int {
	n := 0
	for _, o := range w.outcomes {
		if !o.ok {
			n++
		}
	}
	return n
}

// backlogGrew reports whether the senders fell further behind over the
// window: the median lag of the last tenth of arrivals exceeds that of the
// first tenth by more than 1 ms.
func (w window) backlogGrew() bool {
	n := len(w.outcomes) / 10
	if n == 0 {
		return false
	}
	lags := func(os []outcome) []float64 {
		out := make([]float64, len(os))
		for i, o := range os {
			out[i] = o.lagMS
		}
		return out
	}
	first := Median(lags(w.outcomes[:n]))
	last := Median(lags(w.outcomes[len(w.outcomes)-n:]))
	return last-first > 1
}

// record counts a window's requests in the report.
func (w window) record(rep *report, what string) {
	wrong := 0
	for _, o := range w.outcomes {
		rep.attempt(o.ok)
		if o.wrong {
			wrong++
		}
	}
	if wrong > 0 {
		rep.wrong += wrong
		rep.note(fmt.Sprintf("WRONG OUTPUT: %s: %d decisions differ from Engine.Predict", what, wrong))
	}
}
