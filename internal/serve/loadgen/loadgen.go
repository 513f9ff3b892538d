// Package loadgen is the closed-loop load generator for the serve API.
// Each worker owns one session and drives it as fast as the server
// answers: step, observe the arm, post a deterministic reward, repeat.
// In batch mode (Options.Batch > 0) a worker owns Batch sessions instead
// and advances all of them with one POST /v1/batch per round — the
// previous round's rewards plus the next steps in a single body.
// Per-request latencies land in fixed-width histograms (one per worker,
// merged at the end, so the measurement path takes no locks), from which
// the result reports p50/p99/p999 and throughput. A warmup window at the
// start of the run is excluded from every counter and histogram, so
// cold-start effects (first allocations, branch training) never pollute
// the tail percentiles.
//
// The generator drives an in-process http.Handler. Handing it a
// *serve.Server measures the decision engine itself — no sockets, no
// kernel — which is the configuration the benchmark's serve-batch
// workload (bench/serve.go) uses.
//
// Each worker owns its sessions, so no other client can open or close
// their decisions. A non-200 response or a per-op batch error therefore
// means the server is at fault: it counts as an error and drops the
// pending decision.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"microbandit/internal/serve"
)

// Options configures a load run.
type Options struct {
	// Handler is the server under test, driven in-process.
	Handler http.Handler
	// Workers is the number of closed-loop workers, each with its own
	// session. Defaults to 8.
	Workers int
	// Duration bounds the measured phase. Defaults to 1s.
	Duration time.Duration
	// Spec is the session spec every worker creates (seeds are
	// diversified per worker). A zero Arms selects 8 arms and an empty
	// Algo (without MetaPairs) selects DUCB.
	Spec serve.Spec
	// Batch switches the workers to /v1/batch: each worker owns Batch
	// sessions and drives them all with one request per round, in
	// [0, serve.MaxBatchOps/2] (a round is two ops per session). Zero
	// keeps the scalar step/reward endpoints.
	Batch int
	// Warmup is run before the measured phase and excluded from all
	// counters and histograms. Zero defaults to Duration/10; negative
	// disables the warmup entirely.
	Warmup time.Duration
}

func (o *Options) normalize() {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.Spec.Algo == "" && len(o.Spec.MetaPairs) == 0 {
		o.Spec.Algo = "ducb"
	}
	if o.Spec.Arms == 0 {
		o.Spec.Arms = 8
	}
	switch {
	case o.Warmup < 0:
		o.Warmup = 0
	case o.Warmup == 0:
		o.Warmup = o.Duration / 10
	}
}

// Result is one load run's measurement, in the shape `mab-serve loadgen
// -out` writes.
type Result struct {
	Workers int    `json:"workers"`
	Arms    int    `json:"arms"`
	Algo    string `json:"algo"`
	// Batch is sessions per worker in /v1/batch mode (0 = scalar
	// step/reward endpoints).
	Batch int `json:"batch,omitempty"`
	// WarmupSeconds ran before the measured window and is excluded from
	// every number below.
	WarmupSeconds float64 `json:"warmup_seconds"`
	Seconds       float64 `json:"seconds"`
	Decisions     int64   `json:"decisions"`
	Requests      int64   `json:"requests"`
	// DecisionsPerSec is the headline throughput: completed
	// step+reward pairs per second across all workers.
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	RequestsPerSec  float64 `json:"requests_per_sec"`
	// Per-request latency percentiles, microseconds.
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
	// Batch-size-normalized latency: request latency divided by the
	// decisions one request carries (Batch in batch mode; 1/2 in scalar
	// mode, where a decision takes a step and a reward request).
	P50PerDecisionUs float64 `json:"p50_per_decision_us"`
	P99PerDecisionUs float64 `json:"p99_per_decision_us"`
	// Errors counts failures: non-200 responses, per-op batch errors and
	// malformed batch responses. A healthy run ends with 0.
	Errors int64 `json:"errors"`
	// Retries and Resyncs stay in the result schema for their readers;
	// nothing in this package produces them any more, so both are
	// always 0.
	Retries int64 `json:"retries"`
	Resyncs int64 `json:"resyncs"`
	// Samples is the number of latency samples behind the percentiles.
	Samples int64 `json:"samples"`
	// ZeroSample marks a run whose measured window closed with no
	// samples (a run canceled before its warmup closed):
	// the percentiles and throughput above are reported as explicit
	// zeros, not divisions of an empty interval.
	ZeroSample bool `json:"zero_sample,omitempty"`
}

// Run drives the handler until the duration elapses or ctx is canceled,
// whichever is first, and returns the merged measurement. Session
// creation happens before the clock starts; an interrupt mid-run still
// returns the partial measurement.
func Run(ctx context.Context, opts Options) (*Result, error) {
	opts.normalize()
	if opts.Handler == nil {
		return nil, errors.New("loadgen: Options.Handler is nil")
	}
	if err := opts.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("loadgen: spec: %w", err)
	}
	if max := serve.MaxBatchOps / 2; opts.Batch < 0 || opts.Batch > max {
		return nil, fmt.Errorf("loadgen: batch %d outside [0, %d]", opts.Batch, max)
	}

	var recording atomic.Bool
	workers := make([]*worker, opts.Workers)
	for i := range workers {
		var w *worker
		var err error
		if opts.Batch > 0 {
			w, err = newBatchWorker(opts.Handler, opts.Spec, i, opts.Batch)
		} else {
			w, err = newWorker(opts.Handler, opts.Spec, i)
		}
		if err != nil {
			return nil, err
		}
		w.rec = &recording
		workers[i] = w
	}

	runCtx, cancel := context.WithTimeout(ctx, opts.Warmup+opts.Duration)
	defer cancel()

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(runCtx)
		}(w)
	}
	// The workers traffic through the warmup unrecorded; the measured
	// window opens when the flag flips.
	if opts.Warmup > 0 {
		select {
		case <-time.After(opts.Warmup):
		case <-runCtx.Done():
		}
	}
	recording.Store(true)
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := &Result{
		Workers:       opts.Workers,
		Arms:          opts.Spec.Arms,
		Algo:          opts.Spec.Algo,
		Batch:         opts.Batch,
		WarmupSeconds: opts.Warmup.Seconds(),
		Seconds:       elapsed,
	}
	var hist histogram
	for _, w := range workers {
		res.Decisions += w.decisions
		res.Requests += w.requests
		res.Errors += w.errors
		hist.merge(&w.hist)
	}
	res.Samples = hist.count
	if hist.count == 0 {
		// An empty measured window reports explicit zeros, never a
		// quantile over nothing.
		res.ZeroSample = true
		return res, nil
	}
	if elapsed > 0 {
		res.DecisionsPerSec = float64(res.Decisions) / elapsed
		res.RequestsPerSec = float64(res.Requests) / elapsed
	}
	res.P50Us = hist.quantile(0.50) / 1000
	res.P99Us = hist.quantile(0.99) / 1000
	res.P999Us = hist.quantile(0.999) / 1000
	res.MaxUs = float64(hist.max) / 1000
	perReq := 0.5 // scalar: a decision is a step request plus a reward request
	if opts.Batch > 0 {
		perReq = float64(opts.Batch)
	}
	res.P50PerDecisionUs = res.P50Us / perReq
	res.P99PerDecisionUs = res.P99Us / perReq
	return res, nil
}

// worker is one closed-loop client: a session id, its private histogram,
// and its counters. Nothing here is shared while the run is hot.
//
// The hot loop avoids the httptest helpers: the two requests (step,
// reward) are built once and reused — URL parsed once, bodies swapped in
// place — and responses land in a reusable writer. On one core this
// roughly halves the cost of a decision versus stamping out fresh
// request/recorder pairs, which matters because every µs the generator
// burns is a µs the server under test cannot.
type worker struct {
	h    http.Handler
	base string
	rec  *atomic.Bool // flips true when the measured window opens

	// Scalar mode.
	id        string
	stepReq   *http.Request
	rewardReq *http.Request

	// Batch mode (active when len(ids) > 0): the worker's sessions and
	// each one's pending decision awaiting its reward.
	ids      []string
	pend     []pending
	batchReq *http.Request

	body   memBody
	reqBuf []byte
	resp   respWriter

	decisions int64
	requests  int64
	errors    int64
	hist      histogram
}

// pending is one session's open decision between rounds.
type pending struct {
	has bool
	seq uint64
	arm int
}

func (w *worker) run(ctx context.Context) {
	if len(w.ids) > 0 {
		w.runBatch(ctx)
		return
	}
	w.runScalar(ctx)
}

// memBody is a reusable request body (an io.ReadCloser over a byte
// slice).
type memBody struct {
	data []byte
	off  int
}

func (b *memBody) reset(data []byte) { b.data, b.off = data, 0 }

// Read implements io.Reader.
func (b *memBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

// Close implements io.Closer.
func (b *memBody) Close() error { return nil }

// respWriter is a minimal reusable http.ResponseWriter.
type respWriter struct {
	hdr  http.Header
	code int
	buf  []byte
}

// Header implements http.ResponseWriter.
func (w *respWriter) Header() http.Header { return w.hdr }

// WriteHeader implements http.ResponseWriter.
func (w *respWriter) WriteHeader(code int) { w.code = code }

// Write implements http.ResponseWriter.
func (w *respWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *respWriter) reset() {
	w.code = http.StatusOK
	w.buf = w.buf[:0]
	clear(w.hdr)
}

// createSession posts one session spec and returns the new id.
func createSession(h http.Handler, spec serve.Spec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req := httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(string(body)))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusCreated {
		return "", fmt.Errorf("loadgen: create session: status %d: %s", rw.Code, rw.Body.String())
	}
	var cr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &cr); err != nil {
		return "", fmt.Errorf("loadgen: create session: %w", err)
	}
	return cr.ID, nil
}

// newWorker creates a scalar worker's session (outside the measured
// phase).
func newWorker(h http.Handler, spec serve.Spec, idx int) (*worker, error) {
	spec.Seed = spec.Seed*1000 + uint64(idx) + 1
	id, err := createSession(h, spec)
	if err != nil {
		return nil, err
	}
	w := &worker{h: h, base: "/v1/sessions/" + id, id: id}
	w.stepReq = httptest.NewRequest("POST", w.base+"/step", nil)
	w.stepReq.Body = http.NoBody
	w.rewardReq = httptest.NewRequest("POST", w.base+"/reward", nil)
	w.rewardReq.Body = &w.body
	w.resp.hdr = make(http.Header, 2)
	return w, nil
}

// newBatchWorker creates a worker owning batch sessions, all driven
// through /v1/batch.
func newBatchWorker(h http.Handler, spec serve.Spec, idx, batch int) (*worker, error) {
	w := &worker{h: h, ids: make([]string, batch), pend: make([]pending, batch)}
	for j := range w.ids {
		sp := spec
		sp.Seed = spec.Seed*100_000 + uint64(idx*batch+j) + 1
		id, err := createSession(h, sp)
		if err != nil {
			return nil, err
		}
		w.ids[j] = id
	}
	w.batchReq = httptest.NewRequest("POST", "/v1/batch", nil)
	w.batchReq.Body = &w.body
	w.resp.hdr = make(http.Header, 2)
	return w, nil
}

// runScalar is the scalar closed loop. It checks ctx between decisions,
// not between the step and its reward, so a canceled run never leaves
// the session with an open decision. Any failure is an error.
func (w *worker) runScalar(ctx context.Context) {
	var stepResp struct {
		Seq uint64 `json:"seq"`
		Arm int    `json:"arm"`
	}
	for ctx.Err() == nil {
		recording := w.rec.Load()
		body, code := w.do(w.stepReq, recording)
		if code != http.StatusOK || json.Unmarshal(body, &stepResp) != nil {
			if recording {
				w.errors++
			}
			continue
		}
		if !w.rewardScalar(stepResp.Seq, stepResp.Arm, recording) {
			continue
		}
		if recording {
			w.decisions++
		}
	}
}

// rewardScalar posts the deterministic reward for one open decision.
func (w *worker) rewardScalar(seq uint64, arm int, recording bool) bool {
	b := w.reqBuf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"reward":`...)
	b = strconv.AppendFloat(b, syntheticReward(arm, seq), 'g', -1, 64)
	b = append(b, '}')
	w.reqBuf = b
	w.body.reset(b)
	_, code := w.do(w.rewardReq, recording)
	if code != http.StatusOK {
		if recording {
			w.errors++
		}
		return false
	}
	return true
}

// runBatch is the batch closed loop: one request per round carrying the
// previous round's rewards (first, since the server runs ops in body
// order and a session's step needs its open decision closed) and a fresh
// step for every session.
func (w *worker) runBatch(ctx context.Context) {
	for ctx.Err() == nil {
		recording := w.rec.Load()
		b := append(w.reqBuf[:0], `{"ops":[`...)
		n, nRewards := 0, 0
		for j := range w.ids {
			p := &w.pend[j]
			if !p.has {
				continue
			}
			if n > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"id":"`...)
			b = append(b, w.ids[j]...)
			b = append(b, `","seq":`...)
			b = strconv.AppendUint(b, p.seq, 10)
			b = append(b, `,"reward":`...)
			b = strconv.AppendFloat(b, syntheticReward(p.arm, p.seq), 'g', -1, 64)
			b = append(b, '}')
			n++
			nRewards++
		}
		for j := range w.ids {
			if n > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"id":"`...)
			b = append(b, w.ids[j]...)
			b = append(b, `","step":true}`...)
			n++
		}
		b = append(b, `]}`...)
		w.reqBuf = b
		w.body.reset(b)
		body, code := w.do(w.batchReq, recording)
		if code != http.StatusOK {
			w.batchDesync(recording)
			continue
		}
		w.applyBatchResults(body, nRewards, recording)
	}
}

// applyBatchResults walks a /v1/batch response in op order: the first
// nRewards results close the previous round's decisions, the rest are
// this round's steps (result i+nRewards belongs to session i). The
// scanner is hand-rolled for the same reason the server's parser is: at
// high batch sizes an encoding/json decode in the generator would cost
// more than the decisions being measured.
func (w *worker) applyBatchResults(body []byte, nRewards int, recording bool) {
	const prefix = `{"results":[`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		w.batchDesync(recording)
		return
	}
	pos := len(prefix)
	for ri := 0; ; ri++ {
		if pos >= len(body) {
			w.batchDesync(recording)
			return
		}
		if body[pos] == ']' {
			if ri != nRewards+len(w.ids) {
				w.batchDesync(recording)
			}
			return
		}
		if ri > 0 {
			if body[pos] != ',' {
				w.batchDesync(recording)
				return
			}
			pos++
		}
		switch {
		case hasAt(body, pos, `{"seq":`):
			seq, p, ok := parseUintAt(body, pos+len(`{"seq":`))
			if !ok || !hasAt(body, p, `,"arm":`) {
				w.batchDesync(recording)
				return
			}
			arm, p, ok := parseUintAt(body, p+len(`,"arm":`))
			if !ok || !hasAt(body, p, `}`) {
				w.batchDesync(recording)
				return
			}
			pos = p + 1
			if j := ri - nRewards; j >= 0 && j < len(w.pend) {
				w.pend[j] = pending{has: true, seq: seq, arm: int(arm)}
			}
		case hasAt(body, pos, `{"steps":`):
			_, p, ok := parseUintAt(body, pos+len(`{"steps":`))
			if !ok || !hasAt(body, p, `}`) {
				w.batchDesync(recording)
				return
			}
			pos = p + 1
			if ri < nRewards && recording {
				w.decisions++
			}
		case hasAt(body, pos, `{"error":`):
			end := skipJSONValue(body, pos)
			if end < 0 {
				w.batchDesync(recording)
				return
			}
			pos = end
			// A failed step leaves its session with no decision to
			// reward; a failed reward's session is settled by its step.
			if j := ri - nRewards; j >= 0 && j < len(w.pend) {
				w.pend[j].has = false
			}
			if recording {
				w.errors++
			}
		default:
			w.batchDesync(recording)
			return
		}
	}
}

// batchDesync records a failed, malformed or truncated batch response
// and drops all pending state: better to restart the sessions' decision
// protocol than to reward with stale sequence numbers.
func (w *worker) batchDesync(recording bool) {
	if recording {
		w.errors++
	}
	for j := range w.pend {
		w.pend[j].has = false
	}
}

func hasAt(b []byte, pos int, lit string) bool {
	return pos+len(lit) <= len(b) && string(b[pos:pos+len(lit)]) == lit
}

// parseUintAt reads a decimal run starting at pos.
func parseUintAt(b []byte, pos int) (uint64, int, bool) {
	start := pos
	var n uint64
	for pos < len(b) && b[pos] >= '0' && b[pos] <= '9' {
		n = n*10 + uint64(b[pos]-'0')
		pos++
	}
	return n, pos, pos > start
}

// skipJSONValue skips one balanced JSON object/array starting at pos,
// returning the index just past it (-1 if unbalanced).
func skipJSONValue(b []byte, pos int) int {
	depth, inStr, esc := 0, false, false
	for ; pos < len(b); pos++ {
		c := b[pos]
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{', '[':
			depth++
		case '}', ']':
			depth--
			if depth == 0 {
				return pos + 1
			}
		}
	}
	return -1
}

// do issues one in-process request, timing the full handler invocation.
// Nothing is recorded during warmup.
func (w *worker) do(req *http.Request, recording bool) ([]byte, int) {
	w.resp.reset()
	t0 := time.Now()
	w.h.ServeHTTP(&w.resp, req)
	if recording {
		w.hist.record(time.Since(t0).Nanoseconds())
		w.requests++
	}
	return w.resp.buf, w.resp.code
}

// syntheticReward gives arms distinct stationary means with a
// deterministic per-step wobble, so the agents under load learn a real
// preference instead of noise.
func syntheticReward(arm int, seq uint64) float64 {
	base := 0.3 + 0.4*float64(arm%4)/4
	return base + 0.1*math.Sin(float64(seq)*0.05)
}

// ---------------------------------------------------------------------
// Latency histogram

// Fixed-width two-tier buckets: 100 ns resolution below 1 ms, 10 µs
// resolution up to 100 ms, one overflow bucket above. Recording is two
// integer ops; quantiles interpolate within a bucket.
const (
	fineWidth     = 100       // ns per bucket below fineLimit
	fineLimit     = 1_000_000 // 1 ms
	fineBuckets   = fineLimit / fineWidth
	coarseWidth   = 10_000      // ns per bucket up to coarseLimit
	coarseLimit   = 100_000_000 // 100 ms
	coarseBuckets = (coarseLimit - fineLimit) / coarseWidth
)

type histogram struct {
	fine     [fineBuckets]int64
	coarse   [coarseBuckets]int64
	overflow int64
	count    int64
	max      int64
}

func (h *histogram) record(ns int64) {
	h.count++
	if ns > h.max {
		h.max = ns
	}
	switch {
	case ns < 0:
		h.fine[0]++
	case ns < fineLimit:
		h.fine[ns/fineWidth]++
	case ns < coarseLimit:
		h.coarse[(ns-fineLimit)/coarseWidth]++
	default:
		h.overflow++
	}
}

func (h *histogram) merge(o *histogram) {
	for i, v := range o.fine {
		h.fine[i] += v
	}
	for i, v := range o.coarse {
		h.coarse[i] += v
	}
	h.overflow += o.overflow
	h.count += o.count
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the latency in nanoseconds at quantile q in [0, 1].
func (h *histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count-1))
	var seen int64
	for i, v := range h.fine {
		if seen+v > rank {
			return float64(i)*fineWidth + fineWidth/2
		}
		seen += v
	}
	for i, v := range h.coarse {
		if seen+v > rank {
			return fineLimit + float64(i)*coarseWidth + coarseWidth/2
		}
		seen += v
	}
	return float64(h.max)
}
