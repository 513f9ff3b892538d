package main

// Tracing from outside the program. Every layer boundary the benchmark
// can reach through a public surface is wrapped: the trace generator
// (trace.Generator / ChunkSource), the L2 demand-access hook
// (Core.OnL2Access), the prefetcher (prefetch.Prefetcher), the bandit
// (core.Controller) and its arm actuator (cpu.Actuator), and the decision
// server (http.Handler). The wrappers keep aggregated spans in memory;
// the run writes them to bench/out/<workload>.spans.json at exit.
//
// A clock read pair costs ~100 ns on a 2-vCPU Xeon VM, and a 20M-
// instruction lbm17 rep makes ~9.7M L2-hook and as many Operate calls, so
// timing every per-access call would add ~2 s to a ~3 s rep. They are
// counted always but timed 1 in sampleEvery, on staggered indices so a
// sampled Operate never sits inside a sampled hook; per-chunk and
// per-step calls are timed every time. Each sample has the calibrated
// cost of an empty timed region subtracted.

import (
	"net/http"
	"sync/atomic"
	"time"

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
)

// sampleEvery is the per-access sampling period.
const sampleEvery = 64

// clock holds the calibrated timer costs.
type clock struct {
	// pairNs is what one timed region (time.Now + time.Since) costs the
	// program: bench.timer_ns.
	pairNs float64
	// innerNs is what an empty timed region reads; subtracted from every
	// sample.
	innerNs float64
}

// calibrateClock measures the timer costs as medians over 7 batches.
func calibrateClock() clock {
	const n = 100_000
	var pair, inner []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		var in time.Duration
		for i := 0; i < n; i++ {
			s := time.Now()
			in += time.Since(s)
		}
		pair = append(pair, float64(time.Since(t0))/n)
		inner = append(inner, float64(in)/n)
	}
	return clock{pairNs: median(pair), innerNs: median(inner)}
}

// span aggregates one layer boundary's calls.
type span struct {
	count int64   // calls made
	timed int64   // calls timed
	ns    float64 // summed duration of the timed calls, timer cost removed
}

func (s *span) add(ns float64) {
	s.count++
	s.timed++
	s.ns += ns
}

// total estimates the summed duration of all calls from the timed ones.
func (s *span) total() float64 {
	if s.timed == 0 {
		return 0
	}
	return s.ns / float64(s.timed) * float64(s.count)
}

// perCall is the mean duration of one call.
func (s *span) perCall() float64 { return ratio(s.ns, float64(s.timed)) }

// spanOut is one aggregated span as written to the spans file.
type spanOut struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	Count   int64   `json:"count"`
	TotalNs float64 `json:"total_ns"`
	SelfNs  float64 `json:"self_ns"`
}

// simTracer collects the spans of one simulated core's layers. It is
// single-goroutine state, like the simulator it observes.
type simTracer struct {
	clk  clock
	core *cpu.Core
	// on enables timing; warm-up runs with it off.
	on bool

	fill, hook, operate span
	step, reward, apply span
	candidates          int64

	// inHook is set while a sampled hook call runs; hookCore collects the
	// bandit time spent inside it (timer cost included), which the sample
	// then excludes so the hook span holds only Runner and prefetcher
	// work.
	inHook   bool
	hookCore float64

	// rec, when non-nil, records the demand and prefetch stream for the
	// mem isolation replay.
	rec *recorder
}

// elapsed closes a timed region opened at s, minus the timer's own cost.
func (t *simTracer) elapsed(s time.Time) float64 {
	return float64(time.Since(s)) - t.clk.innerNs
}

// coreCall times one bandit-side call (Step, Reward, Apply).
func (t *simTracer) coreCall(sp *span, s time.Time) {
	d := t.elapsed(s)
	sp.add(d)
	if t.inHook {
		t.hookCore += d + t.clk.pairNs
	}
}

// wrapHook wraps the core's L2 demand-access hook.
func (t *simTracer) wrapHook(inner cpu.L2AccessFunc) cpu.L2AccessFunc {
	return func(pc, addr uint64, hit bool, cycle int64) {
		if !t.on {
			if rec := t.rec; rec != nil {
				if idx := t.core.Insts(); idx < rec.limit {
					rec.cycles = append(rec.cycles, uint64(idx), uint64(cycle))
				}
			}
			inner(pc, addr, hit, cycle)
			return
		}
		n := t.hook.count
		t.hook.count++
		if n%sampleEvery != 0 {
			inner(pc, addr, hit, cycle)
			return
		}
		t.inHook, t.hookCore = true, 0
		s := time.Now()
		inner(pc, addr, hit, cycle)
		d := t.elapsed(s) - t.hookCore
		t.inHook = false
		t.hook.timed++
		t.hook.ns += d
	}
}

// recorder holds the memory stream of the instructions [0, limit) of one
// untimed run: demand accesses in program order, the issue cycle of each
// L1 miss (the L2 hook's cycle argument) and the prefetches issued after
// each.
type recorder struct {
	limit int64
	// demand holds pairs (index<<1 | isWrite, addr).
	demand []uint64
	// cycles holds pairs (index, issue cycle), one per L2 access.
	cycles []uint64
	// pref holds triples (index, addr, target).
	pref []uint64
}

// issueCycle returns the issue cycle of the demand access at index idx:
// the recorded one for an L1 miss, otherwise interpolated between the
// neighbouring misses. *j is the scan position in r.cycles, advanced
// monotonically as the replay walks the stream in order.
func (r *recorder) issueCycle(idx int64, j *int) int64 {
	c := r.cycles
	for *j < len(c) && int64(c[*j]) < idx {
		*j += 2
	}
	switch {
	case *j < len(c) && int64(c[*j]) == idx:
		return int64(c[*j+1])
	case *j == 0 && len(c) > 0:
		return int64(c[1])
	case *j >= len(c):
		if len(c) == 0 {
			return 0
		}
		return int64(c[len(c)-1])
	}
	i0, c0 := float64(c[*j-2]), float64(c[*j-1])
	i1, c1 := float64(c[*j]), float64(c[*j+1])
	return int64(c0 + (c1-c0)*(float64(idx)-i0)/(i1-i0))
}

// genWrap wraps a trace generator. It always presents ChunkSource — the
// core reads chunks through trace.SourceOf either way, so the stream and
// the call pattern are the same as unwrapped — and otherwise exactly the
// optional interfaces of the generator it wraps (see wrapGen).
type genWrap struct {
	inner trace.Generator
	src   trace.ChunkSource
	t     *simTracer
	base  int64 // stream index of the next chunk's first instruction
}

// Name implements trace.Generator.
func (g *genWrap) Name() string { return g.inner.Name() }

// Next implements trace.Generator.
func (g *genWrap) Next(i *trace.Inst) { g.inner.Next(i) }

// NextChunk implements trace.ChunkSource.
func (g *genWrap) NextChunk(c *trace.Chunk) {
	if g.t.on {
		s := time.Now()
		g.src.NextChunk(c)
		g.t.fill.add(g.t.elapsed(s))
	} else {
		g.src.NextChunk(c)
	}
	if rec := g.t.rec; rec != nil && g.base < rec.limit {
		for _, i := range c.Mem {
			idx := g.base + int64(i)
			if idx >= rec.limit {
				break
			}
			w := uint64(0)
			if c.Kind[i] == trace.KindStore {
				w = 1
			}
			rec.demand = append(rec.demand, uint64(idx)<<1|w, c.Addr[i])
		}
	}
	g.base += int64(c.Len())
}

// phaser is the scalar phase probe Core.Phase falls back to.
type phaser interface{ Phase() int }

// wrapGen wraps g, forwarding exactly the optional interfaces g has:
// trace.PhaseAtter and Phase() (probed by Core.Phase for context
// signatures) and trace.CacheStatser (probed by Core.ChunkCacheStats).
func wrapGen(g trace.Generator, t *simTracer) trace.Generator {
	w := &genWrap{inner: g, src: trace.SourceOf(g), t: t}
	pa, hasPA := g.(trace.PhaseAtter)
	ph, hasPh := g.(phaser)
	cs, hasCS := g.(trace.CacheStatser)
	switch {
	case hasPA && hasPh && hasCS:
		return struct {
			*genWrap
			trace.PhaseAtter
			phaser
			trace.CacheStatser
		}{w, pa, ph, cs}
	case hasPA && hasPh:
		return struct {
			*genWrap
			trace.PhaseAtter
			phaser
		}{w, pa, ph}
	case hasPA && hasCS:
		return struct {
			*genWrap
			trace.PhaseAtter
			trace.CacheStatser
		}{w, pa, cs}
	case hasPh && hasCS:
		return struct {
			*genWrap
			phaser
			trace.CacheStatser
		}{w, ph, cs}
	case hasPA:
		return struct {
			*genWrap
			trace.PhaseAtter
		}{w, pa}
	case hasPh:
		return struct {
			*genWrap
			phaser
		}{w, ph}
	case hasCS:
		return struct {
			*genWrap
			trace.CacheStatser
		}{w, cs}
	}
	return w
}

// pfWrap wraps a prefetcher's Operate.
type pfWrap struct {
	inner prefetch.Prefetcher
	t     *simTracer
}

// Name implements prefetch.Prefetcher.
func (p *pfWrap) Name() string { return p.inner.Name() }

// Reset implements prefetch.Prefetcher.
func (p *pfWrap) Reset() { p.inner.Reset() }

// Operate implements prefetch.Prefetcher.
func (p *pfWrap) Operate(ev prefetch.Event, buf []uint64) []uint64 {
	t := p.t
	before := len(buf)
	if t.on {
		n := t.operate.count
		t.operate.count++
		if n%sampleEvery == sampleEvery/2 {
			s := time.Now()
			buf = p.inner.Operate(ev, buf)
			t.operate.timed++
			t.operate.ns += t.elapsed(s)
		} else {
			buf = p.inner.Operate(ev, buf)
		}
		t.candidates += int64(len(buf) - before)
	} else {
		buf = p.inner.Operate(ev, buf)
	}
	if rec := t.rec; rec != nil && len(buf) > before {
		if idx := t.core.Insts(); idx < rec.limit {
			target := uint64(mem.PrefToL2)
			if ta, ok := p.inner.(prefetch.TargetAware); ok && ta.LLCOnly() {
				target = uint64(mem.PrefToLLC)
			}
			for _, a := range buf[before:] {
				rec.pref = append(rec.pref, uint64(idx), a, target)
			}
		}
	}
	return buf
}

// wrapPrefetcher wraps p, forwarding exactly the optional interfaces the
// Runner probes on its L2 prefetcher: prefetch.TargetAware and
// prefetch.BandwidthAware.
func wrapPrefetcher(p prefetch.Prefetcher, t *simTracer) prefetch.Prefetcher {
	w := &pfWrap{inner: p, t: t}
	ta, hasTA := p.(prefetch.TargetAware)
	ba, hasBA := p.(prefetch.BandwidthAware)
	switch {
	case hasTA && hasBA:
		return struct {
			*pfWrap
			prefetch.TargetAware
			prefetch.BandwidthAware
		}{w, ta, ba}
	case hasTA:
		return struct {
			*pfWrap
			prefetch.TargetAware
		}{w, ta}
	case hasBA:
		return struct {
			*pfWrap
			prefetch.BandwidthAware
		}{w, ba}
	}
	return w
}

// ctrlWrap wraps a bandit controller, timing select (Step) and update
// (Reward) separately.
type ctrlWrap struct {
	inner core.Controller
	t     *simTracer
}

// Step implements core.Controller.
func (c *ctrlWrap) Step() int {
	if !c.t.on {
		return c.inner.Step()
	}
	s := time.Now()
	arm := c.inner.Step()
	c.t.coreCall(&c.t.step, s)
	return arm
}

// Reward implements core.Controller.
func (c *ctrlWrap) Reward(r float64) {
	if !c.t.on {
		c.inner.Reward(r)
		return
	}
	s := time.Now()
	c.inner.Reward(r)
	c.t.coreCall(&c.t.reward, s)
}

// InInitialRR implements core.Controller.
func (c *ctrlWrap) InInitialRR() bool { return c.inner.InInitialRR() }

// wrapController wraps c, forwarding exactly the optional interfaces c
// has: core.ContextSetter (probed by the Runner before every step) and
// core.ProbeSetter.
func wrapController(c core.Controller, t *simTracer) core.Controller {
	w := &ctrlWrap{inner: c, t: t}
	cs, hasCS := c.(core.ContextSetter)
	ps, hasPS := c.(core.ProbeSetter)
	switch {
	case hasCS && hasPS:
		return struct {
			*ctrlWrap
			core.ContextSetter
			core.ProbeSetter
		}{w, cs, ps}
	case hasCS:
		return struct {
			*ctrlWrap
			core.ContextSetter
		}{w, cs}
	case hasPS:
		return struct {
			*ctrlWrap
			core.ProbeSetter
		}{w, ps}
	}
	return w
}

// actWrap wraps the arm actuator.
type actWrap struct {
	inner cpu.Actuator
	t     *simTracer
}

// NumArms implements cpu.Actuator.
func (a *actWrap) NumArms() int { return a.inner.NumArms() }

// Apply implements cpu.Actuator.
func (a *actWrap) Apply(arm int) {
	if !a.t.on {
		a.inner.Apply(arm)
		return
	}
	s := time.Now()
	a.inner.Apply(arm)
	a.t.coreCall(&a.t.apply, s)
}

// handlerTracer times every request of a wrapped http.Handler. Requests
// take tens of microseconds, so timing each costs well under 1%. It is
// safe for the load generator's concurrent workers.
type handlerTracer struct {
	clk   clock
	count atomic.Int64
	ns    atomic.Int64
	// hist buckets durations by handlerBucketNs; the last bucket takes
	// everything longer.
	hist [handlerBuckets]atomic.Int64
}

const (
	handlerBucketNs = 250
	handlerBuckets  = 8192 // 2 ms of 250 ns buckets
)

// wrap returns h with every request timed.
func (t *handlerTracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := time.Now()
		h.ServeHTTP(w, r)
		d := int64(float64(time.Since(s)) - t.clk.innerNs)
		t.count.Add(1)
		t.ns.Add(d)
		b := d / handlerBucketNs
		if b < 0 {
			b = 0
		}
		if b >= handlerBuckets {
			b = handlerBuckets - 1
		}
		t.hist[b].Add(1)
	})
}

// quantileNs returns the q-quantile of the recorded durations at bucket
// midpoints.
func (t *handlerTracer) quantileNs(q float64) float64 {
	total := t.count.Load()
	if total == 0 {
		return 0
	}
	want := int64(q * float64(total))
	var seen int64
	for i := range t.hist {
		seen += t.hist[i].Load()
		if seen > want {
			return (float64(i) + 0.5) * handlerBucketNs
		}
	}
	return handlerBuckets * handlerBucketNs
}
