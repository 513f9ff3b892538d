package main

import (
	"fmt"
	"math"
	"time"

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
)

const (
	// pfWarmup instructions run untimed at the start of every rep, as part
	// of its set-up, so the modelled caches (2 MB LLC = 32Ki lines) and
	// the bandit's initial round-robin are past before timing starts.
	pfWarmup = 1 << 20
	// pfSlice is the latency operation: the rep is simulated in slices of
	// this many instructions, each timed and followed by a probe
	// (probe.go). 64Ki instructions take 4-8 ms, so a 10 s run holds
	// >1000 samples and its p99 has more than ten beyond it.
	pfSlice = 1 << 16
	// pfRecord instructions after warm-up are recorded for the mem
	// isolation replay (~1.5M accesses on lbm17, ~50 MB).
	pfRecord = 1 << 21
)

// pfWorkload is a single-core prefetching simulation: the paper's DUCB
// bandit (Table 6) over the Table 7 ensemble on the default Table 4
// hierarchy, the configuration every prefetching experiment runs its
// bandit jobs under. Each rep builds a fresh simulator from the seed, so
// every rep of a run must produce the same simulated IPC.
type pfWorkload struct {
	app   string
	insts int64 // measured instructions per rep
}

// sim is one simulated core with its runner.
type sim struct {
	r    *cpu.Runner
	hier *mem.Hierarchy
}

// newBandit builds the measured controller.
func newBandit(arms int, seed uint64) core.Controller {
	return core.MustNew(core.Config{
		Arms:      arms,
		Policy:    core.NewDUCB(core.PrefetchC, core.PrefetchGamma),
		Normalize: true,
		Seed:      seed,
	})
}

// newSim builds the simulator over gen under ctrl; with t non-nil every
// layer boundary is wrapped for tracing.
func newSim(gen trace.Generator, ctrl func(arms int) core.Controller, t *simTracer) *sim {
	hier := mem.NewHierarchy(mem.DefaultConfig())
	if t != nil {
		gen = wrapGen(gen, t)
	}
	c := cpu.New(cpu.DefaultConfig(), hier, gen)
	ens := prefetch.NewTable7Ensemble()
	var (
		pf  prefetch.Prefetcher = ens
		act cpu.Actuator        = ens
		ctl                     = ctrl(ens.NumArms())
	)
	if t != nil {
		t.core = c
		pf = wrapPrefetcher(ens, t)
		act = &actWrap{inner: ens, t: t}
		ctl = wrapController(ctl, t)
	}
	r := cpu.NewRunner(c, pf, ctl, act)
	if t != nil {
		c.OnL2Access = t.wrapHook(c.OnL2Access)
	}
	return &sim{r: r, hier: hier}
}

// simSnap is a snapshot of the simulator's public counters.
type simSnap struct {
	insts, ff, cycles   int64
	stats               mem.Stats
	class               mem.Classification
	l1, l2, llc         mem.CacheStats
	dramR, dramW, dramQ int64
	busy                float64
}

func (s *sim) snap() simSnap {
	c, h := s.r.Core, s.hier
	return simSnap{
		insts: c.Insts(), ff: c.FFInsts(), cycles: c.Cycles(),
		stats: h.Stats(), class: h.Classify(),
		l1: h.L1().Stats(), l2: h.L2().Stats(), llc: h.LLC().Stats(),
		dramR: h.DRAM().Reads(), dramW: h.DRAM().Writes(), dramQ: h.DRAM().Queued(),
		busy: h.DRAM().BusyCycles(),
	}
}

// hitRates returns the L1, L2 and LLC demand hit rates between two
// snapshots.
func hitRates(a, b simSnap) [3]float64 {
	hr := func(x, y mem.CacheStats) float64 {
		h, m := float64(y.Hits-x.Hits), float64(y.Misses-x.Misses)
		return ratio(h, h+m)
	}
	return [3]float64{hr(a.l1, b.l1), hr(a.l2, b.l2), hr(a.llc, b.llc)}
}

// repOut is one rep's measurement.
type repOut struct {
	setup float64 // normalized seconds
	// wall is the raw host seconds of the measured slices; norm is the
	// same normalized (see probe.go).
	wall, norm    float64
	ops           []float64 // normalized ms per latency operation
	ipcBits       uint64
	cycles        int64
	before, after simSnap
}

// rep builds a fresh simulator, warms it up untimed, then simulates the
// measured instructions in timed slices, each followed by a probe that
// normalizes it.
func (w pfWorkload) rep(app trace.App, seed uint64, t *simTracer, m *hostMeter, p *probe) repOut {
	var out repOut
	settle()
	t0 := time.Now()
	s := newSim(app.New(seed), func(arms int) core.Controller { return newBandit(arms, seed) }, t)
	s.r.Run(pfWarmup)
	out.before = s.snap()
	setup := time.Since(t0).Seconds()
	if t != nil {
		t.on = true
	}
	var probes []float64
	mt := m.begin()
	for done := int64(0); done < w.insts; done += pfSlice {
		k := min(pfSlice, w.insts-done)
		s0 := time.Now()
		s.r.Run(k)
		d := time.Since(s0).Seconds()
		pn := p.run()
		n := d * scale(pn)
		probes = append(probes, pn)
		out.wall += d
		out.norm += n
		if k == pfSlice {
			out.ops = append(out.ops, n*1000)
		}
	}
	m.end(mt)
	// Set-up is normalized by the rep's median probe: a probe right after
	// constructing the simulator would run on caches the construction
	// just flushed.
	out.setup = setup * scale(median(probes))
	if t != nil {
		t.on = false
	}
	out.after = s.snap()
	out.ipcBits = math.Float64bits(s.r.Core.IPC())
	out.cycles = s.r.Core.Cycles()
	return out
}

func (w pfWorkload) run(cfg runCfg) *result {
	res := newResult()
	app, err := trace.ByName(w.app)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	m := newHostMeter()
	p := newProbe()
	tr := &simTracer{clk: cfg.clk}
	var (
		setups, ops, rates []float64
		norms              [2][]float64 // normalized rep seconds: untraced, traced
		walls              [2][]float64 // raw host seconds, same order
		ref, firstTraced   *repOut
		spent              float64
	)
	minReps := 2
	if cfg.trace {
		minReps = 4 // untraced and traced reps alternate
	}
	for i := 0; i < minReps || spent < cfg.seconds; i++ {
		traced := cfg.trace && i%2 == 1
		var t *simTracer
		if traced {
			t = tr
		}
		res.attempted++
		var out repOut
		if err := guard(func() { out = w.rep(app, cfg.seed, t, m, p) }); err != nil {
			res.fail("rep %d: %v", i, err)
			continue
		}
		spent += out.wall
		if ref == nil {
			ref = &out
			cfg.checkSim(res, w.insts, out.ipcBits, out.cycles)
		} else if out.ipcBits != ref.ipcBits || out.cycles != ref.cycles {
			res.fail("rep %d (traced=%v): IPC %v over %d cycles, rep 0 had %v over %d",
				i, traced, math.Float64frombits(out.ipcBits), out.cycles,
				math.Float64frombits(ref.ipcBits), ref.cycles)
		}
		setups = append(setups, out.setup)
		ops = append(ops, out.ops...)
		rates = append(rates, float64(w.insts)/out.norm)
		mode := 0
		if traced {
			mode = 1
			if firstTraced == nil {
				firstTraced = &out
			}
		}
		norms[mode] = append(norms[mode], out.norm)
		walls[mode] = append(walls[mode], out.wall)
	}
	if ref == nil {
		return res
	}
	res.e2e["work_per_s"] = median(rates)
	res.e2e["latency_p50_ms"] = percentile(ops, 50)
	res.e2e["latency_p99_ms"] = percentile(ops, 99)
	res.e2e["setup_s"] = median(setups)
	res.note("ipc %v cycles %d reps %d latency_samples %d",
		math.Float64frombits(ref.ipcBits), ref.cycles, len(setups), len(ops))
	res.note("rep_s untraced %.3f (raw %.3f) traced %.3f (raw %.3f)", norms[0], walls[0], norms[1], walls[1])
	if cfg.trace && firstTraced != nil {
		res.layer["bench.trace_overhead"] = median(norms[1])/median(norms[0]) - 1
		repCalls, repNs := w.layers(res, cfg, tr, walls[1], firstTraced)
		w.replayLayer(res, cfg, app, repCalls, repNs)
		m.report(res, 1)
		res.layer["core.batch_ns_per_decision"] = coreBatchNs(prefetch.NewTable7Ensemble().NumArms(), cfg.seed)
	}
	return res
}

// layers turns the traced reps' spans and counters into per-layer
// metrics. Shares are of the traced host time minus the timer's own cost;
// cpu.window_mem is the residual (window model plus demand
// Hierarchy.Access), so the simulator shares sum to 1 by construction.
// It returns the hierarchy calls one traced rep made and its host ns.
func (w pfWorkload) layers(res *result, cfg runCfg, tr *simTracer, walls []float64, o *repOut) (repCalls, repNs float64) {
	nT := float64(len(walls))
	timedCalls := tr.fill.timed + tr.hook.timed + tr.operate.timed + tr.step.timed + tr.reward.timed + tr.apply.timed
	run := sum(walls)*1e9 - cfg.clk.pairNs*float64(timedCalls)
	fill, hook, op := tr.fill.ns, tr.hook.total(), tr.operate.total()
	coreNs := tr.step.ns + tr.reward.ns + tr.apply.ns
	window := run - fill - hook - coreNs
	l := res.layer
	l["trace.fill_share"] = fill / run
	l["trace.chunks"] = float64(tr.fill.count) / nT
	l["cpu.window_mem_share"] = window / run
	l["cpu.l2hook_calls"] = float64(tr.hook.count) / nT
	l["cpu.l2hook_self_share"] = (hook - op) / run
	l["prefetch.operate_share"] = op / run
	l["prefetch.candidates_per_call"] = ratio(float64(tr.candidates), float64(tr.operate.count))
	l["core.steps"] = float64(tr.step.count) / nT
	l["core.share"] = coreNs / run
	l["core.step_share"] = tr.step.ns / run
	l["core.reward_share"] = tr.reward.ns / run

	a, b := o.before, o.after
	insts := float64(b.insts - a.insts)
	l["cpu.insts"] = insts
	l["cpu.ff_coverage"] = ratio(float64(b.ff-a.ff), insts)
	hr := hitRates(a, b)
	l["mem.l1_hit_rate"], l["mem.l2_hit_rate"], l["mem.llc_hit_rate"] = hr[0], hr[1], hr[2]
	l["mem.llc_mpki"] = ratio(float64(b.stats.LLCMisses-a.stats.LLCMisses), insts/1000)
	l["mem.pref_issued"] = float64(b.stats.PrefIssued - a.stats.PrefIssued)
	l["mem.pref_dropped"] = float64(b.stats.PrefDropped - a.stats.PrefDropped)
	l["mem.pref_late"] = float64(b.stats.PrefLate - a.stats.PrefLate)
	l["mem.dram_reads"] = float64(b.dramR - a.dramR)
	l["mem.dram_writes"] = float64(b.dramW - a.dramW)
	l["mem.dram_queued"] = float64(b.dramQ - a.dramQ)
	l["mem.dram_bw_util"] = ratio(b.busy-a.busy, float64(b.cycles-a.cycles))
	useful := float64(b.class.Timely - a.class.Timely + b.class.Late - a.class.Late)
	l["prefetch.useful_ratio"] = ratio(useful, useful+float64(b.class.Wrong-a.class.Wrong))

	res.note("trace.fill_ns_per_inst %.3f ns", fill/nT/float64(w.insts))
	res.note("cpu.window_mem_ns_per_inst %.3f ns", window/nT/float64(w.insts))
	res.note("cpu.l2hook_self_ns %.1f ns/call (%d of %d calls timed)",
		ratio(hook-op, float64(tr.hook.count)), tr.hook.timed, tr.hook.count)
	res.note("prefetch.operate_ns %.1f ns/call (%d of %d calls timed)",
		tr.operate.perCall(), tr.operate.timed, tr.operate.count)
	res.note("core.step_ns %.1f ns", tr.step.perCall())
	res.note("core.reward_ns %.1f ns", tr.reward.perCall())
	res.note("core.apply_ns %.1f ns", tr.apply.perCall())

	res.spans = []spanOut{
		{Name: "run", Count: int64(nT), TotalNs: run, SelfNs: window},
		{Name: "trace.fill", Parent: "run", Count: tr.fill.count, TotalNs: fill, SelfNs: fill},
		{Name: "cpu.l2hook", Parent: "run", Count: tr.hook.count, TotalNs: hook + coreNs, SelfNs: hook - op},
		{Name: "prefetch.operate", Parent: "cpu.l2hook", Count: tr.operate.count, TotalNs: op, SelfNs: op},
		{Name: "core.step", Parent: "cpu.l2hook", Count: tr.step.count, TotalNs: tr.step.ns, SelfNs: tr.step.ns},
		{Name: "core.reward", Parent: "cpu.l2hook", Count: tr.reward.count, TotalNs: tr.reward.ns, SelfNs: tr.reward.ns},
		{Name: "core.apply", Parent: "cpu.l2hook", Count: tr.apply.count, TotalNs: tr.apply.ns, SelfNs: tr.apply.ns},
	}
	demand := float64(b.stats.Loads - a.stats.Loads + b.stats.Stores - a.stats.Stores)
	return demand + float64(tr.candidates)/nT, run / nT
}

// replayLayer is the mem isolation replay: record one run's demand and
// prefetch stream from what the wrappers see, replay it through a fresh
// hierarchy at the recorded issue cycles and time it. The result counts
// only when the replay's L1/L2/LLC hit rates each stay within 2 points of
// the recorded run's; otherwise the timing describes a different cache
// behaviour and is reported as unresolved, with the gap. (Issuing every
// access at instruction index / run IPC instead left mcf17's L1 hit rate
// at 0.63 against the run's 0.00: its dependent loads wait on DRAM, so
// issue cycles are far from uniform.) repCalls is the number of hierarchy
// calls (demand accesses plus issued prefetches) one traced rep made in
// repNs of host time.
func (w pfWorkload) replayLayer(res *result, cfg runCfg, app trace.App, repCalls, repNs float64) {
	rec := &recorder{limit: pfWarmup + pfRecord}
	t := &simTracer{clk: cfg.clk, rec: rec}
	s := newSim(app.New(cfg.seed), func(arms int) core.Controller { return newBandit(arms, cfg.seed) }, t)
	s.r.Run(pfWarmup)
	a := s.snap()
	s.r.Run(pfRecord)
	want := hitRates(a, s.snap())

	var times []float64
	var got [3]float64
	var calls int
	for i := 0; i < 3; i++ {
		var ns float64
		ns, got, calls = replay(rec, pfWarmup)
		times = append(times, ns)
	}
	perCall := median(times) / float64(calls)
	gap := 0.0
	for i := range got {
		gap = math.Max(gap, math.Abs(got[i]-want[i]))
	}
	if gap > 0.02 {
		res.note("mem.access_ns unresolved: replay hit rates L1/L2/LLC %.3f/%.3f/%.3f vs run %.3f/%.3f/%.3f (gap %.3f > 0.02)",
			got[0], got[1], got[2], want[0], want[1], want[2], gap)
		return
	}
	res.note("mem.access_ns %.1f ns/call over %d replayed calls (hit-rate gap %.3f)", perCall, calls, gap)
	res.layer["mem.access_share"] = perCall * repCalls / repNs
}

// replay runs rec through a fresh hierarchy and returns the elapsed ns,
// the L1/L2/LLC hit rates after index warm, and the number of hierarchy
// calls made.
func replay(rec *recorder, warm int64) (ns float64, rates [3]float64, calls int) {
	h := mem.NewHierarchy(mem.DefaultConfig())
	s := &sim{hier: h}
	var at simSnap
	snapped := false
	p, j := 0, 0
	t0 := time.Now()
	for k := 0; k < len(rec.demand); k += 2 {
		idx := int64(rec.demand[k] >> 1)
		if !snapped && idx >= warm {
			at, snapped = s.memSnap(), true
		}
		cyc := rec.issueCycle(idx, &j)
		h.Access(rec.demand[k+1], rec.demand[k]&1 == 1, cyc)
		for ; p < len(rec.pref) && int64(rec.pref[p]) <= idx; p += 3 {
			h.Prefetch(rec.pref[p+1], cyc, mem.PrefTarget(rec.pref[p+2]))
		}
	}
	ns = float64(time.Since(t0))
	return ns, hitRates(at, s.memSnap()), len(rec.demand)/2 + len(rec.pref)/3
}

// memSnap snapshots only the hierarchy's cache counters.
func (s *sim) memSnap() simSnap {
	h := s.hier
	return simSnap{l1: h.L1().Stats(), l2: h.L2().Stats(), llc: h.LLC().Stats()}
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// guard runs f, turning a panic into an error.
func guard(f func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	f()
	return nil
}
