package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"microbandit/internal/core"
	"microbandit/internal/serve"
	"microbandit/internal/serve/loadgen"
	"microbandit/internal/xrand"
)

const (
	serveWorkers = 2  // closed-loop clients, one per vCPU of the 2-vCPU reference VM
	serveBatch   = 64 // sessions per client, all advanced by one /v1/batch request
	serveArms    = 8
	// serveWarmup runs before each measured window; it is part of set-up.
	serveWarmup = 500 * time.Millisecond
)

// serveWorkload drives an in-process decision server with the closed-loop
// load generator: the decision plane (core slab kernels, serve codec and
// store) with no simulator. The window is split into several load runs,
// each against a fresh server, so set-up is measured several times.
type serveWorkload struct{}

func (serveWorkload) run(cfg runCfg) *result {
	res := newResult()
	runs := 5
	if cfg.trace {
		runs = 4 // untraced and traced runs alternate
	}
	window := time.Duration(cfg.seconds / float64(runs) * float64(time.Second))
	m := newHostMeter()
	smp := startSampler()
	defer smp.close()
	ht := &handlerTracer{clk: cfg.clk}
	var (
		setups, rates, p50s, p99s []float64
		rawRates                  []float64
		byMode                    [2][]float64 // decisions/s untraced, traced
		clientP50                 []float64    // traced runs, ns
		samples, tracedRequests   int64
	)
	for i := 0; i < runs; i++ {
		traced := cfg.trace && i%2 == 1
		settle()
		t0 := time.Now()
		var h http.Handler = serve.New(serve.Config{})
		if traced {
			h = ht.wrap(h)
		}
		mt := m.begin()
		lr, err := loadgen.Run(context.Background(), loadgen.Options{
			Handler:  h,
			Workers:  serveWorkers,
			Duration: window,
			Spec:     serve.Spec{Algo: "ducb", Arms: serveArms, Seed: cfg.seed},
			Batch:    serveBatch,
			Warmup:   serveWarmup,
		})
		m.end(mt)
		total := time.Since(t0).Seconds()
		f := smp.scaleBetween(mt, time.Now())
		if err != nil {
			res.attempted++
			res.fail("load run %d: %v", i, err)
			continue
		}
		res.attempted += lr.Requests
		switch {
		case lr.Errors > 0 || lr.Retries > 0 || lr.Resyncs > 0:
			res.fail("load run %d: errors %d, retries %d, resyncs %d", i, lr.Errors, lr.Retries, lr.Resyncs)
			res.failed += lr.Errors
		case lr.Samples == 0:
			res.fail("load run %d: no latency samples", i)
		case lr.Decisions != serveBatch*lr.Requests:
			res.fail("load run %d: %d decisions over %d requests of %d sessions", i, lr.Decisions, lr.Requests, serveBatch)
		}
		if lr.Samples == 0 {
			continue
		}
		// Set-up is mostly the fixed warm-up window, a duration rather
		// than work, so it is not normalized.
		setups = append(setups, total-lr.Seconds)
		rates = append(rates, lr.DecisionsPerSec/f)
		rawRates = append(rawRates, lr.DecisionsPerSec)
		p50s = append(p50s, lr.P50Us/1000*f)
		p99s = append(p99s, lr.P99Us/1000*f)
		samples += lr.Samples
		mode := 0
		if traced {
			mode = 1
			clientP50 = append(clientP50, lr.P50Us*1000)
			tracedRequests += lr.Requests
		}
		byMode[mode] = append(byMode[mode], lr.DecisionsPerSec/f)
	}
	if err := checkDecisions(cfg.seed); err != nil {
		res.fail("decision check: %v", err)
	}
	if len(rates) == 0 {
		return res
	}
	res.e2e["work_per_s"] = median(rates)
	res.e2e["latency_p50_ms"] = median(p50s)
	res.e2e["latency_p99_ms"] = median(p99s)
	res.e2e["setup_s"] = median(setups)
	res.note("load_runs %d latency_samples %d", len(rates), samples)
	res.note("decisions_per_s %.0f (raw %.0f)", rates, rawRates)

	if cfg.trace && len(clientP50) > 0 {
		l := res.layer
		l["bench.trace_overhead"] = median(byMode[0])/median(byMode[1]) - 1
		l["serve.requests"] = float64(tracedRequests) / float64(len(clientP50))
		hp50 := ht.quantileNs(0.5)
		l["serve.handler_share"] = hp50 / median(clientP50)
		l["core.batch_ns_per_decision"] = coreBatchNs(serveArms, cfg.seed)
		m.report(res, serveWorkers)
		res.note("serve.handler_us_p50 %.2f us", hp50/1000)
		res.note("serve.handler_us_p99 %.2f us", ht.quantileNs(0.99)/1000)
		res.note("serve.client_us_p50 %.2f us", median(clientP50)/1000)
		n := ht.count.Load()
		res.spans = []spanOut{{Name: "serve.handler", Parent: "client", Count: n,
			TotalNs: float64(ht.ns.Load()), SelfNs: float64(ht.ns.Load())}}
	}
	return res
}

// checkDecisions checks the server's decisions against the core agent
// they must equal: sessions driven through /v1/batch with seeded rewards
// choose exactly the arms standalone agents with the same spec choose
// under the same rewards.
func checkDecisions(seed uint64) error {
	const sessions, rounds = 4, 500
	if seed == 0 {
		seed = 1 // the server's default seed
	}
	h := serve.New(serve.Config{})
	ids := make([]string, sessions)
	agents := make([]core.Controller, sessions)
	for j := range ids {
		spec := serve.Spec{Algo: "ducb", Arms: serveArms, Seed: seed + uint64(j)}
		var created struct {
			ID string `json:"id"`
		}
		if err := call(h, "POST", "/v1/sessions", spec, http.StatusCreated, &created); err != nil {
			return err
		}
		ids[j] = created.ID
		a, err := core.ParseAlgo(spec.Algo, spec.Arms, spec.Seed, false)
		if err != nil {
			return err
		}
		agents[j] = a
	}
	rng := xrand.New(seed)
	means := make([]float64, serveArms)
	for a := range means {
		means[a] = rng.Float64()
	}
	type op struct {
		ID     string   `json:"id"`
		Step   bool     `json:"step,omitempty"`
		Seq    *uint64  `json:"seq,omitempty"`
		Reward *float64 `json:"reward,omitempty"`
	}
	seqs := make([]uint64, sessions)
	arms := make([]int, sessions)
	for r := 0; r < rounds; r++ {
		var resp struct {
			Results []struct {
				Seq   uint64          `json:"seq"`
				Arm   int             `json:"arm"`
				Error json.RawMessage `json:"error"`
			} `json:"results"`
		}
		var ops []op
		if r > 0 {
			for j := range ids {
				seq, rw := seqs[j], means[arms[j]]
				ops = append(ops, op{ID: ids[j], Seq: &seq, Reward: &rw})
				agents[j].Reward(rw)
			}
		}
		for j := range ids {
			ops = append(ops, op{ID: ids[j], Step: true})
		}
		if err := call(h, "POST", "/v1/batch", map[string]any{"ops": ops}, http.StatusOK, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(ops) {
			return fmt.Errorf("round %d: %d results for %d ops", r, len(resp.Results), len(ops))
		}
		steps := resp.Results[len(ops)-sessions:]
		for j, st := range steps {
			if st.Error != nil {
				return fmt.Errorf("round %d session %d: %s", r, j, st.Error)
			}
			if want := agents[j].Step(); st.Arm != want {
				return fmt.Errorf("round %d session %d: server chose arm %d, agent %d", r, j, st.Arm, want)
			}
			seqs[j], arms[j] = st.Seq, st.Arm
		}
	}
	return nil
}

// call sends one JSON request to h and decodes the reply into out.
func call(h http.Handler, method, path string, body any, want int, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(method, path, bytes.NewReader(b)))
	if rw.Code != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, rw.Code, rw.Body.String())
	}
	return json.Unmarshal(rw.Body.Bytes(), out)
}
