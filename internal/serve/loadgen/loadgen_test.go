package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"microbandit/internal/serve"
)

func TestRunSmoke(t *testing.T) {
	srv := serve.New(serve.Config{})
	res, err := Run(context.Background(), Options{
		Handler:  srv,
		Workers:  4,
		Duration: 150 * time.Millisecond,
		Spec:     serve.Spec{Algo: "ducb", Arms: 8},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Decisions == 0 || res.DecisionsPerSec <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.Requests < 2*res.Decisions {
		t.Fatalf("requests %d < 2×decisions %d", res.Requests, res.Decisions)
	}
	if res.P50Us <= 0 || res.P99Us < res.P50Us || res.P999Us < res.P99Us {
		t.Fatalf("percentiles not ordered: %+v", res)
	}
	if res.Workers != 4 || res.Arms != 8 {
		t.Fatalf("echoed options wrong: %+v", res)
	}
	// Closed loop: no session may end the run with an open decision.
	for _, id := range srv.Store().IDs() {
		s, ok := srv.Store().Get(id)
		if !ok {
			continue
		}
		if info, err := s.Info(); err == nil && info.Open {
			t.Fatalf("session %s left with an open decision", id)
		}
	}
	if got := srv.Store().Len(); got != 4 {
		t.Fatalf("sessions = %d, want 4", got)
	}
}

func TestRunCanceledEarly(t *testing.T) {
	srv := serve.New(serve.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Run(ctx, Options{Handler: srv, Workers: 2, Duration: 10 * time.Second, Warmup: -1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel did not stop the run (took %v)", elapsed)
	}
	if res.Decisions == 0 {
		t.Fatal("canceled run reported no partial work")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(context.Background(), Options{}); err == nil {
		t.Fatal("nil handler accepted")
	}
	srv := serve.New(serve.Config{})
	if _, err := Run(context.Background(), Options{Handler: srv, Spec: serve.Spec{Arms: -1}}); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// TestNormalizeKeepsSpec: a zero Arms defaults the arm count alone; the
// algorithm and seed the caller set survive, and an empty Algo defaults
// on its own.
func TestNormalizeKeepsSpec(t *testing.T) {
	o := Options{Spec: serve.Spec{Algo: "ucb", Seed: 9}}
	o.normalize()
	if want := (serve.Spec{Algo: "ucb", Arms: 8, Seed: 9}); !reflect.DeepEqual(o.Spec, want) {
		t.Fatalf("normalized spec = %+v, want %+v", o.Spec, want)
	}
	o = Options{Spec: serve.Spec{Arms: 3}}
	o.normalize()
	if o.Spec.Algo != "ducb" || o.Spec.Arms != 3 {
		t.Fatalf("normalized spec = %+v, want ducb with 3 arms", o.Spec)
	}

	srv := serve.New(serve.Config{})
	if _, err := Run(context.Background(), Options{
		Handler: srv, Workers: 1, Duration: 20 * time.Millisecond, Spec: serve.Spec{Algo: "ucb"},
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, id := range srv.Store().IDs() {
		s, _ := srv.Store().Get(id)
		if sp := s.Spec(); sp.Algo != "ucb" || sp.Arms != 8 {
			t.Fatalf("session %s spec = %+v, want ucb with 8 arms", id, sp)
		}
	}
}

// TestRunRejectsBadBatch: a batch size outside [0, MaxBatchOps/2] is an
// error before any session is created, not a silent rewrite.
func TestRunRejectsBadBatch(t *testing.T) {
	for _, batch := range []int{-1, serve.MaxBatchOps/2 + 1} {
		srv := serve.New(serve.Config{})
		if _, err := Run(context.Background(), Options{Handler: srv, Batch: batch}); err == nil {
			t.Fatalf("batch %d accepted", batch)
		}
		if n := srv.Store().Len(); n != 0 {
			t.Fatalf("batch %d: %d sessions created before the rejection", batch, n)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	// 1..1000 µs uniformly.
	for i := int64(1); i <= 1000; i++ {
		h.record(i * 1000)
	}
	if q := h.quantile(0.5); q < 400_000 || q > 600_000 {
		t.Fatalf("p50 = %v ns, want ~500µs", q)
	}
	if q := h.quantile(0.99); q < 950_000 || q > 1_050_000 {
		t.Fatalf("p99 = %v ns, want ~990µs", q)
	}
	if h.max != 1_000_000 {
		t.Fatalf("max = %d", h.max)
	}
	// Overflow and merge.
	var h2 histogram
	h2.record(500_000_000)
	h.merge(&h2)
	if h.count != 1001 || h.overflow != 1 || h.max != 500_000_000 {
		t.Fatalf("merge: count %d overflow %d max %d", h.count, h.overflow, h.max)
	}
	if q := h.quantile(1.0); q != 500_000_000 {
		t.Fatalf("p100 = %v", q)
	}
}

func TestRunBatchMode(t *testing.T) {
	srv := serve.New(serve.Config{})
	res, err := Run(context.Background(), Options{
		Handler:  srv,
		Workers:  3,
		Batch:    16,
		Duration: 150 * time.Millisecond,
		Spec:     serve.Spec{Algo: "ducb", Arms: 6},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Decisions == 0 || res.DecisionsPerSec <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.Batch != 16 {
		t.Fatalf("batch echoed as %d", res.Batch)
	}
	// One request carries a whole round: far fewer requests than
	// decisions, and the normalized latency reflects the batch size.
	if res.Requests >= res.Decisions {
		t.Fatalf("batch mode made %d requests for %d decisions", res.Requests, res.Decisions)
	}
	if want := res.P50Us / 16; res.P50PerDecisionUs != want {
		t.Fatalf("p50 per decision %v, want %v", res.P50PerDecisionUs, want)
	}
	if got := srv.Store().Len(); got != 3*16 {
		t.Fatalf("sessions = %d, want 48", got)
	}
	// Closed loop: every session ends the run with its decision closed.
	for _, id := range srv.Store().IDs() {
		s, ok := srv.Store().Get(id)
		if !ok {
			continue
		}
		info, err := s.Info()
		if err != nil {
			t.Fatalf("Info(%s): %v", id, err)
		}
		if info.Seq == 0 {
			t.Fatalf("session %s saw no traffic", id)
		}
	}
}

// TestWarmupExcluded: the warmup window is reported but its traffic is
// not — a run whose duration is tiny next to its warmup still reports
// only the measured window's seconds.
func TestWarmupExcluded(t *testing.T) {
	srv := serve.New(serve.Config{})
	res, err := Run(context.Background(), Options{
		Handler:  srv,
		Workers:  2,
		Duration: 100 * time.Millisecond,
		Warmup:   200 * time.Millisecond,
		Spec:     serve.Spec{Algo: "eps", Arms: 4},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WarmupSeconds != 0.2 {
		t.Fatalf("warmup_seconds = %v, want 0.2", res.WarmupSeconds)
	}
	if res.Seconds > 0.19 {
		t.Fatalf("measured window %.3fs includes the warmup", res.Seconds)
	}
	if res.Decisions == 0 {
		t.Fatal("no measured decisions after warmup")
	}
	// The store has seen strictly more traffic than the measurement
	// counted: warmup decisions happened but were not recorded.
	var total uint64
	for _, id := range srv.Store().IDs() {
		s, ok := srv.Store().Get(id)
		if !ok {
			continue
		}
		info, err := s.Info()
		if err != nil {
			t.Fatalf("Info(%s): %v", id, err)
		}
		total += info.Seq
	}
	if total <= uint64(res.Decisions) {
		t.Fatalf("store counts %d steps, measurement %d — warmup traffic missing", total, res.Decisions)
	}
}

// TestZeroSampleRun: a run canceled before its warmup window closes
// reports an explicitly empty measurement instead of quantiles over
// nothing.
func TestZeroSampleRun(t *testing.T) {
	srv := serve.New(serve.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	res, err := Run(ctx, Options{
		Handler:  srv,
		Workers:  2,
		Duration: 5 * time.Second,
		Warmup:   5 * time.Second,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.ZeroSample || res.Samples != 0 {
		t.Fatalf("want explicit zero-sample result, got samples=%d zero=%v", res.Samples, res.ZeroSample)
	}
	if res.P50Us != 0 || res.P99Us != 0 || res.DecisionsPerSec != 0 {
		t.Fatalf("zero-sample run reported nonzero stats: %+v", res)
	}
}

// TestForeignDecisionCountsAsError: a decision opened behind a worker's
// back is a fault the generator does not repair. In scalar mode every
// step bounces off it; in batch mode that session's ops fail while the
// worker's other sessions keep deciding. Both count errors.
func TestForeignDecisionCountsAsError(t *testing.T) {
	for _, batch := range []int{0, 2} {
		srv := serve.New(serve.Config{})
		spec := serve.Spec{Algo: "ducb", Arms: 4}
		var w *worker
		var err error
		if batch > 0 {
			w, err = newBatchWorker(srv, spec, 0, batch)
		} else {
			w, err = newWorker(srv, spec, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		var recording atomic.Bool
		recording.Store(true)
		w.rec = &recording
		id := w.id
		if batch > 0 {
			id = w.ids[0]
		}
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, httptest.NewRequest("POST", "/v1/sessions/"+id+"/step", nil))
		if rw.Code != http.StatusOK {
			t.Fatalf("batch %d: setup step: %d", batch, rw.Code)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		w.run(ctx)
		cancel()
		if w.errors == 0 {
			t.Fatalf("batch %d: the foreign decision recorded no errors", batch)
		}
		if batch > 0 && w.decisions == 0 {
			t.Fatalf("batch %d: the worker's other session made no decisions", batch)
		}
	}
}
