package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"microbandit/internal/core"
	"microbandit/internal/fault"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
)

func app(t *testing.T, name string) trace.App {
	t.Helper()
	a, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// ifaceOf returns the reflect type of interface I.
func ifaceOf[I any]() reflect.Type { return reflect.TypeOf((*I)(nil)).Elem() }

// TestWrappersForwardOptionalInterfaces checks that every wrapper shows
// exactly the optional interfaces of the value it wraps: the simulator
// probes them, so a dropped one (or an added one) would make the traced
// program differ from the measured one.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := &simTracer{}
	stormSet, err := fault.ParseSet("phasestorm:0.5")
	if err != nil {
		t.Fatal(err)
	}
	noiseSet, err := fault.ParseSet("noise:0.3")
	if err != nil {
		t.Fatal(err)
	}
	lbm, mcf := app(t, "lbm17"), app(t, "mcf17")
	ducb := func(seed uint64) core.Controller { return newBandit(11, seed) }
	ctx, err := core.NewContextualAgent(core.ContextualConfig{Arms: 11, Algo: "ducb", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.NewSelector(core.Config{Policy: core.NewUCB(core.PrefetchC), Seed: 1},
		[]core.Controller{ducb(2), ducb(3)}, []string{"a", "b"}, 11)
	if err != nil {
		t.Fatal(err)
	}

	gens := []struct {
		name string
		g    trace.Generator
	}{
		{"catalog", lbm.New(1)},
		{"phasegen", mcf.New(1)},
		{"chunk-cache", trace.NewChunkCache(0).Source("mcf17:1", mcf.New(1))},
		{"phasestorm", fault.Generator(mcf.New(1), stormSet, 1)},
		{"loop", trace.NewLoop("loop", trace.CollectN(lbm.New(1), 100))},
	}
	genIfaces := []reflect.Type{ifaceOf[trace.PhaseAtter](), ifaceOf[phaser](), ifaceOf[trace.CacheStatser]()}
	for _, c := range gens {
		checkForwarding(t, "gen/"+c.name, c.g, wrapGen(c.g, tr), genIfaces)
	}

	pfs := []struct {
		name string
		p    prefetch.Prefetcher
	}{
		{"table7", prefetch.NewTable7Ensemble()},
		{"extended", prefetch.NewExtendedEnsemble()},
		{"pythia", prefetch.NewPythia(1)},
		{"null", prefetch.Null{}},
	}
	pfIfaces := []reflect.Type{ifaceOf[prefetch.TargetAware](), ifaceOf[prefetch.BandwidthAware]()}
	for _, c := range pfs {
		checkForwarding(t, "pf/"+c.name, c.p, wrapPrefetcher(c.p, tr), pfIfaces)
	}

	ctrls := []struct {
		name string
		c    core.Controller
	}{
		{"agent", ducb(1)},
		{"ctx-ducb", ctx},
		{"selector", sel},
		{"fault", fault.Controller(ducb(1), noiseSet, 1)},
		{"fixed", core.FixedArm(0)},
	}
	ctrlIfaces := []reflect.Type{ifaceOf[core.ContextSetter](), ifaceOf[core.ProbeSetter]()}
	for _, c := range ctrls {
		checkForwarding(t, "ctrl/"+c.name, c.c, wrapController(c.c, tr), ctrlIfaces)
	}
}

func checkForwarding(t *testing.T, name string, inner, wrapped any, ifaces []reflect.Type) {
	t.Helper()
	for _, it := range ifaces {
		want := reflect.TypeOf(inner).Implements(it)
		if got := reflect.TypeOf(wrapped).Implements(it); got != want {
			t.Errorf("%s: wrapper implements %v = %v, wrapped value %v", name, it, got, want)
		}
	}
}

// TestTracedRunBitIdentical checks that a traced simulation (timing on,
// and separately recording for the mem replay) reproduces the untraced
// one's simulated IPC and cycle count bit for bit.
func TestTracedRunBitIdentical(t *testing.T) {
	const insts = 200_000
	lbm, canneal, mcf, omnet := app(t, "lbm17"), app(t, "canneal"), app(t, "mcf17"), app(t, "omnetpp17")
	ducb := func(arms int) core.Controller { return newBandit(arms, 7) }
	ctxDUCB := func(arms int) core.Controller {
		c, err := core.NewContextualAgent(core.ContextualConfig{Arms: arms, Algo: "ducb", Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name string
		gen  func() trace.Generator
		ctrl func(int) core.Controller
	}{
		{"pf-stream", func() trace.Generator { return lbm.New(7) }, ducb},
		{"pf-chase", func() trace.Generator { return canneal.New(7) }, ducb},
		{"phasegen", func() trace.Generator { return mcf.New(7) }, ducb},
		// Phases of 40k instructions put several phase flips, and so
		// several context changes, inside the run.
		{"ctx-ducb", func() trace.Generator {
			return trace.NewPhaseGen("flip", 40_000, lbm.New(7), omnet.New(8))
		}, ctxDUCB},
		{"ctx-ducb-cached", func() trace.Generator {
			return trace.NewChunkCache(0).Source("flip:7", trace.NewPhaseGen("flip", 40_000, lbm.New(7), omnet.New(8)))
		}, ctxDUCB},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(tr *simTracer) (uint64, int64) {
				s := newSim(c.gen(), c.ctrl, tr)
				s.r.Run(insts)
				return math.Float64bits(s.r.Core.IPC()), s.r.Core.Cycles()
			}
			wantIPC, wantCycles := run(nil)
			timed := &simTracer{clk: calibrateClock(), on: true}
			recording := &simTracer{rec: &recorder{limit: insts}}
			for _, tr := range []*simTracer{timed, recording} {
				if ipc, cycles := run(tr); ipc != wantIPC || cycles != wantCycles {
					t.Errorf("traced (timing %v): IPC %v over %d cycles, untraced %v over %d",
						tr.on, math.Float64frombits(ipc), cycles, math.Float64frombits(wantIPC), wantCycles)
				}
			}
			if timed.hook.count == 0 || timed.hook.timed == 0 || timed.step.count == 0 || timed.fill.count == 0 {
				t.Errorf("timed run recorded no spans: %+v", timed)
			}
			if len(recording.rec.demand) == 0 || len(recording.rec.cycles) == 0 {
				t.Error("recording run recorded no accesses")
			}
		})
	}
}

// TestReplayReproducesRun checks that the mem isolation replay of a
// recorded stream reproduces the recorded run's cache behaviour.
func TestReplayReproducesRun(t *testing.T) {
	const warm, window = 100_000, 200_000
	rec := &recorder{limit: warm + window}
	s := newSim(app(t, "mcf17").New(3), func(arms int) core.Controller { return newBandit(arms, 3) },
		&simTracer{rec: rec})
	s.r.Run(warm)
	a := s.snap()
	s.r.Run(window)
	want := hitRates(a, s.snap())
	_, got, calls := replay(rec, warm)
	if calls == 0 {
		t.Fatal("replay made no calls")
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 0.02 {
			t.Errorf("level %d: replay hit rate %.3f, run %.3f", i, got[i], want[i])
		}
	}
}

// TestSchemaMatchesBenchmarkJSON keeps BENCHMARK.json and the metric and
// workload tables in step.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	var e2e, layer []metric
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metric{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", layer, perLayer)
	}
	if _, err := os.Stat("golden/seed1.json"); err != nil {
		t.Errorf("seed 1 golden missing: %v", err)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which judges the spreads.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestConcurrentTracers drives the two tracers that several goroutines
// reach at once: the request-timing handler wrapper and the background
// probe sampler.
func TestConcurrentTracers(t *testing.T) {
	smp := startSampler()
	from := time.Now()
	ht := &handlerTracer{}
	h := ht.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	const goroutines, requests = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
			}
		}()
	}
	wg.Wait()
	if n := ht.count.Load(); n != goroutines*requests {
		t.Errorf("handler tracer counted %d requests, want %d", n, goroutines*requests)
	}
	if q := ht.quantileNs(0.5); q <= 0 {
		t.Errorf("handler p50 = %v ns", q)
	}
	// Wait for a probe sample rather than sleeping a fixed time.
	deadline := time.Now().Add(5 * time.Second)
	for {
		smp.mu.Lock()
		n := len(smp.ns)
		smp.mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(samplerPeriod)
	}
	if f := smp.scaleBetween(from, time.Now()); !(f > 0) {
		t.Errorf("sampler scale = %v", f)
	}
	smp.close()
}
