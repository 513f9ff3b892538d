package main

import (
	"time"

	"microbandit/internal/harness"
	"microbandit/internal/prefetch"
	"microbandit/internal/simsmt"
	"microbandit/internal/trace"
)

// expWorkers is the experiment engine's pool size, one worker per vCPU of
// the 2-vCPU reference VM.
const expWorkers = 2

// expWorkload runs a whole experiment through harness and par, the way
// mab-report does, at the smoke preset: the quick preset takes 19 s
// (Table 8) and 14 s (Fig. 13) per experiment on 2 vCPUs, longer than a
// run's measuring window.
type expWorkload struct {
	// table8 selects harness.Table8; otherwise harness.Fig13.
	table8 bool
}

// expRun is one experiment's outcome.
type expRun struct {
	rendered string
	work     float64 // simulated instructions (Table 8) or SMT cycles (Fig. 13)
	counters *harness.SimCounters
	failures []harness.JobFailure
}

// once runs the experiment at options o with a fresh chunk cache, as one
// mab-report invocation would.
func (w expWorkload) once(o harness.Options) expRun {
	o.Workers = expWorkers
	o.ChunkCache = trace.NewChunkCache(0)
	o.Errs = &harness.ErrorLog{}
	out := expRun{counters: &harness.SimCounters{}}
	o.SimCounters = out.counters
	if w.table8 {
		out.rendered = harness.Table8(o).Render()
		out.work = float64(out.counters.Insts.Load())
	} else {
		r := harness.Fig13(o)
		out.rendered = r.Render()
		out.work = float64(len(r.Mixes) * 3 * int(o.SMTCycles)) // Bandit, Choi, ICount per mix
	}
	out.failures = o.Errs.Drain()
	return out
}

// options returns the measured preset for seed.
func (w expWorkload) options(seed uint64) harness.Options {
	o := harness.Smoke()
	o.Seed = seed
	return o
}

// warmOptions is the set-up run: the same experiment over one app or mix
// and a tenth of the budget, so code paths, the heap and the worker pool
// are warm before timing.
func (w expWorkload) warmOptions(seed uint64) harness.Options {
	o := w.options(seed)
	o.Insts /= 10
	o.SMTCycles /= 10
	o.MaxApps, o.MaxMixes = 1, 1
	return o
}

func (w expWorkload) run(cfg runCfg) *result {
	res := newResult()
	smp := startSampler()
	defer smp.close()
	var setups []float64
	for i := 0; i < 3; i++ {
		settle()
		t0 := time.Now()
		if err := guard(func() { w.once(w.warmOptions(cfg.seed)) }); err != nil {
			res.fail("set-up run %d: %v", i, err)
		}
		t1 := time.Now()
		setups = append(setups, t1.Sub(t0).Seconds()*smp.scaleBetween(t0, t1))
	}

	m := newHostMeter()
	var (
		walls, rates []float64    // normalized
		byMode       [2][]float64 // normalized walls: untraced, traced
		raws         []float64    // raw host seconds
		ref          *expRun
		spent        float64
	)
	minReps := 2
	if cfg.trace {
		minReps = 4
	}
	for i := 0; i < minReps || spent < cfg.seconds; i++ {
		res.attempted++
		var out expRun
		settle()
		mt := m.begin()
		err := guard(func() { out = w.once(w.options(cfg.seed)) })
		raw := m.end(mt)
		spent += raw
		wall := raw * smp.scaleBetween(mt, time.Now())
		if err != nil {
			res.fail("rep %d: %v", i, err)
			continue
		}
		if len(out.failures) > 0 {
			res.fail("rep %d: %d failed jobs, first: %v", i, len(out.failures), out.failures[0])
			continue
		}
		if ref == nil {
			ref = &out
			cfg.checkTable(res, out.rendered)
		} else if out.rendered != ref.rendered {
			res.fail("rep %d rendered a different table than rep 0", i)
		}
		walls = append(walls, wall)
		raws = append(raws, raw)
		rates = append(rates, out.work/wall)
		mode := 0
		if cfg.trace && i%2 == 1 {
			mode = 1
		}
		byMode[mode] = append(byMode[mode], wall)
	}
	if ref == nil {
		return res
	}
	res.e2e["work_per_s"] = median(rates)
	res.e2e["latency_p50_ms"] = median(walls) * 1000
	res.e2e["latency_p99_ms"] = percentile(walls, 99) * 1000
	res.e2e["setup_s"] = median(setups)
	res.note("reps %d (latency_p99_ms is the slowest of them)", len(walls))
	res.note("experiment_s %.3f (raw %.3f)", walls, raws)

	if cfg.trace {
		// Nothing inside harness is wrapped (its runs build their own
		// simulators), so a traced rep differs from an untraced one only
		// by the host counters read around it.
		l := res.layer
		l["bench.trace_overhead"] = median(byMode[1])/median(byMode[0]) - 1
		m.report(res, expWorkers)
		arms := prefetch.NewTable7Ensemble().NumArms()
		if w.table8 {
			c := ref.counters
			l["cpu.insts"] = float64(c.Insts.Load())
			l["cpu.ff_coverage"] = c.FFCoverage()
			l["trace.chunk_hit_rate"] = c.HitRate()
		} else {
			l["simsmt.cycles"] = ref.work
			arms = len(simsmt.Table1Arms())
		}
		l["core.batch_ns_per_decision"] = coreBatchNs(arms, cfg.seed)
		res.spans = []spanOut{{Name: "run", Count: int64(len(raws)), TotalNs: sum(raws) * 1e9, SelfNs: sum(raws) * 1e9}}
	}
	return res
}
