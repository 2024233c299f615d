package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/experiment"
	"repro/internal/serve"
)

const (
	servePool  = 4096 // synthetic feature vectors; also the decision-cache size
	serveZipfS = 1.1  // popularity skew of the pool

	// The two fixed offered rates, chosen near a quarter and three
	// quarters of capacity_rps as measured on a 2-core x86-64 host when
	// the benchmark was defined.
	rateLow  = 1100.0
	rateHigh = 3300.0

	// latencyLimitMS is the p99 latency limit capacity_rps is held to.
	latencyLimitMS = 10.0
	// Capacity search: offered rates step by capStep from capStartRPS
	// until one passes and one fails, then capBisect bisections between
	// them. Each probe offers at least capProbeMin
	// requests (enough for a p99 with 10 samples beyond it) over at least
	// capProbeSeconds.
	capStartRPS     = 1000.0
	capStep         = 1.3
	capMaxSteps     = 12
	capBisect       = 3
	capProbeMin     = 1000
	capProbeSeconds = 0.5
)

// Arrival-schedule streams, so the warm-up, the measured windows and the
// capacity probes never share a schedule.
const (
	streamWarm = iota + 1
	streamLow
	streamHigh
	streamProbe
)

// serveBench serves the trained predictor over loopback HTTP.
type serveBench struct {
	env    *runEnv
	eng    *serve.Engine
	srv    *serve.Server
	hs     *http.Server
	served chan error
	lc     *loadClient
	pool   [][]float64

	predictUS    []float64 // Engine.Predict per pool vector, µs
	eff, oracle  float64   // served decisions' quality on the training phases
	low, high    []float64 // latencies (ms) pooled over the run's passes
	lags         []float64 // sender lag (ms) pooled over the run's passes
	codes        map[int]int
	hits, misses uint64
	serverP50MS  float64
	serverP99MS  float64
	decisions    string // digest of the pool's expected decisions
	digests      *digestCheck
}

// setupServe trains the advanced-counter predictor at TestScale (adaptd's
// first-boot default), starts serve.New(engine, WithCacheSize(4096)) on a
// loopback port, and fills the decision cache with an untimed warm-up.
func setupServe(ctx context.Context, env *runEnv) (instance, error) {
	sp := span("experiment.Build")
	ds, err := experiment.Build(ctx, experiment.TestScale())
	sp.Finish()
	if err != nil {
		return nil, err
	}
	sp = span("experiment.TrainAll")
	pred, err := ds.TrainAll(counters.Advanced)
	sp.Finish()
	if err != nil {
		return nil, err
	}
	eng, err := serve.NewEngine(pred, false)
	if err != nil {
		return nil, err
	}
	s := &serveBench{env: env, eng: eng, codes: map[int]int{}, digests: newDigestCheck(env)}

	// Inputs: the seeded pool, each vector's expected decision (timing
	// Engine.Predict from outside) and its request body.
	s.pool = serve.SyntheticFeatures(eng.Dim(), servePool, env.seed)
	expect := make([]arch.Config, len(s.pool))
	bodies := make([][]byte, len(s.pool))
	h := sha256.New()
	sp = span("serve.Engine.Predict")
	for i, v := range s.pool {
		t0 := time.Now()
		expect[i], _ = eng.Predict(v)
		s.predictUS = append(s.predictUS, float64(time.Since(t0))/1e3)
	}
	sp.Finish()
	for i, v := range s.pool {
		writeConfig(h, expect[i])
		if bodies[i], err = json.Marshal(serve.PredictRequest{Features: v, Set: eng.Set().String()}); err != nil {
			return nil, err
		}
	}
	decisions := hex.EncodeToString(h.Sum(nil))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = serve.New(eng, serve.WithCacheSize(servePool))
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.lc = newLoadClient("http://"+ln.Addr().String(), bodies, expect)

	sp = span("serve.warmup")
	warm, err := s.schedule(streamWarm, servePool, rateHigh)
	if err == nil {
		s.lc.replay(warm, true).record(env.rep, "warm-up")
	}
	sp.Finish()
	if err != nil {
		s.close()
		return nil, err
	}

	// Decision quality: the served decision for every training phase of
	// the dataset, scored like Figure 4 (in-sample: the model saw these
	// phases).
	served := map[experiment.PhaseID]arch.Config{}
	for _, id := range ds.Phases {
		body, err := json.Marshal(serve.PredictRequest{Features: ds.FeaturesAdv[id], Set: eng.Set().String()})
		if err != nil {
			s.close()
			return nil, err
		}
		cfg, code, decoded := post(s.lc.clients[0], s.lc.url, body)
		want, _ := eng.Predict(ds.FeaturesAdv[id])
		env.rep.check(code == http.StatusOK && decoded && cfg == want,
			fmt.Sprintf("served decision for phase %s (HTTP %d) differs from Engine.Predict", id, code))
		served[id] = cfg
	}
	var model, oracle []float64
	for _, prog := range ds.Programs() {
		phases := ds.ProgramPhases(prog)
		model = append(model, ds.RatioMean(phases, func(id experiment.PhaseID) arch.Config { return served[id] }))
		oracle = append(oracle, ds.RatioMean(phases, ds.Oracle()))
	}
	s.eff = GeoMean(model)
	if g := GeoMean(oracle); g > 1 {
		s.oracle = (s.eff - 1) / (g - 1)
	}
	s.decisions = decisions
	return s, nil
}

// schedule draws n open-loop Poisson arrivals at rate over the Zipf pool
// with serve.LoadGen's deterministic scheduler.
func (s *serveBench) schedule(stream uint64, n int, rate float64) ([]serve.Arrival, error) {
	lg := serve.LoadGen{
		Requests: n,
		Seed:     s.env.seed<<8 | stream,
		Pool:     s.pool,
		Mode:     "open",
		RPS:      rate,
		ZipfS:    serveZipfS,
	}
	return lg.Schedule()
}

func (s *serveBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	s.lc.close()
	return err
}

// serveWindowSeconds is the length of each fixed-rate window of a pass.
const serveWindowSeconds = 2.5

// pass offers the low rate, then the high rate, each for
// serveWindowSeconds of Poisson arrivals, and checks every response.
func (s *serveBench) pass(_ context.Context, rep *report) error {
	s.digests.check(rep, map[string]string{"decisions": s.decisions})
	before, err := s.lc.status()
	if err != nil {
		return err
	}
	for _, w := range []struct {
		stream uint64
		rate   float64
		lat    *[]float64
		what   string
	}{
		{streamLow, rateLow, &s.low, "low-rate window"},
		{streamHigh, rateHigh, &s.high, "high-rate window"},
	} {
		arr, err := s.schedule(w.stream, int(w.rate*serveWindowSeconds), w.rate)
		if err != nil {
			return err
		}
		sp := span(fmt.Sprintf("loadgen.window %.0f", w.rate))
		res := s.lc.replay(arr, false)
		sp.Finish()
		res.record(rep, w.what)
		*w.lat = append(*w.lat, res.latencies()...)
		for _, o := range res.outcomes {
			s.lags = append(s.lags, o.lagMS)
			s.codes[o.code]++
		}
	}
	after, err := s.lc.status()
	if err != nil {
		return err
	}
	s.hits += after.Cache.Hits - before.Cache.Hits
	s.misses += after.Cache.Misses - before.Cache.Misses
	for _, l := range after.Latency {
		if l.Path == "/v1/predict" {
			s.serverP50MS, s.serverP99MS = l.P50Seconds*1e3, l.P99Seconds*1e3
		}
	}
	rep.set("eff_vs_static", s.eff)
	rep.set("oracle_share", s.oracle)
	rep.set("p50_ms_low", Median(s.low))
	rep.set("p99_ms_low", Percentile(s.low, 99))
	rep.set("p50_ms_high", Median(s.high))
	rep.set("p99_ms_high", Percentile(s.high, 99))
	rep.summaries["p50_ms_low"] = Summarize(s.low)
	rep.summaries["p50_ms_high"] = Summarize(s.high)
	rep.set("loadgen.lag_p99_ms", Percentile(s.lags, 99))
	rep.summaries["loadgen.lag_p99_ms"] = Summarize(s.lags)
	rep.set("loadgen.sent", float64(len(s.lags)))
	return nil
}

// after measures capacity_rps: the highest offered rate whose probe
// answers every request correctly with p99 within latencyLimitMS and no
// growing backlog.
func (s *serveBench) after(_ context.Context, rep *report) error {
	probe := func(rate float64) (bool, error) {
		n := int(rate * capProbeSeconds)
		if n < capProbeMin {
			n = capProbeMin
		}
		arr, err := s.schedule(streamProbe, n, rate)
		if err != nil {
			return false, err
		}
		sp := span(fmt.Sprintf("loadgen.probe %.0f", rate))
		w := s.lc.replay(arr, false)
		sp.Finish()
		for _, o := range w.outcomes {
			if o.wrong {
				rep.check(false, "capacity probe: a response's decision differs from Engine.Predict")
				break
			}
		}
		ok := w.failures() == 0 && Percentile(w.latencies(), 99) <= latencyLimitMS && !w.backlogGrew()
		rep.note(fmt.Sprintf("capacity probe %.0f rps: p99 %.3f ms, %d failed, ok=%v",
			rate, Percentile(w.latencies(), 99), w.failures(), ok))
		return ok, nil
	}
	// Walk from capStartRPS up until a rate fails, or down until one
	// passes, then bisect between the two.
	pass, fail := 0.0, 0.0
	for rate, i := capStartRPS, 0; i < capMaxSteps && (pass == 0 || fail == 0); i++ {
		ok, err := probe(rate)
		if err != nil {
			return err
		}
		if ok {
			pass, rate = rate, rate*capStep
		} else {
			fail, rate = rate, rate/capStep
		}
	}
	for i := 0; i < capBisect && fail > 0 && pass > 0; i++ {
		mid := (pass + fail) / 2
		ok, err := probe(mid)
		if err != nil {
			return err
		}
		if ok {
			pass = mid
		} else {
			fail = mid
		}
	}
	rep.set("capacity_rps", pass)
	return nil
}

func (s *serveBench) layers(rep *report, t *spanTree, d counterDelta) {
	rep.set("experiment.build_s", t.total("bench.experiment.Build"))
	rep.set("experiment.search_s", t.total("search"))
	rep.set("experiment.profile_s", t.total("profile"))
	rep.set("experiment.search_sims", d.get("repro_sims_exact"))
	rep.set("experiment.train_s", t.total("experiment.train"))
	rep.set("trace.gen_s", t.total("tracegen"))
	setSimCounts(rep, d)
	if s.hits+s.misses > 0 {
		rep.set("serve.cache_hit_frac", float64(s.hits)/float64(s.hits+s.misses))
	}
	rep.set("serve.engine_predict_us", Median(s.predictUS))
	rep.summaries["serve.engine_predict_us"] = Summarize(s.predictUS)
	rep.set("serve.server_p50_ms", s.serverP50MS)
	rep.set("serve.server_p99_ms", s.serverP99MS)
	var c2, c4, c5 int
	for code, n := range s.codes {
		switch {
		case code >= 200 && code < 300:
			c2 += n
		case code == http.StatusTooManyRequests:
			c4 += n
		case code >= 500:
			c5 += n
		}
	}
	rep.set("serve.status_2xx", float64(c2))
	rep.set("serve.status_429", float64(c4))
	rep.set("serve.status_5xx", float64(c5))
}
