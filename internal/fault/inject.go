package fault

import (
	"fmt"
	"math"

	"microbandit/internal/core"
	"microbandit/internal/mem"
	"microbandit/internal/trace"
	"microbandit/internal/xrand"
)

// mix folds the spec seed and the per-run sub-seed into one stream seed
// (SplitMix64 finalizer), so the same spec produces independent fault
// streams across runs while staying deterministic for each.
func mix(specSeed, runSeed uint64) uint64 {
	z := specSeed*0x9e3779b97f4a7c15 + runSeed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Reward-channel faults: core.Controller wrapper

// faultyController perturbs the reward stream between the simulated unit
// and the real controller. Step and InInitialRR pass through untouched.
type faultyController struct {
	inner core.Controller

	noiseAmp  float64
	noiseRNG  *xrand.Rand
	quantStep float64
	delay     int
	buf       []float64

	panicAt int // bandit step at which to panic; 0 = never
	steps   int
}

// Controller wraps inner with the set's reward-channel faults (noise,
// quantize, delay, panic). When the set carries none of them it returns
// inner unchanged — the clean path has zero overhead.
func Controller(inner core.Controller, fs Set, runSeed uint64) core.Controller {
	var w faultyController
	injected := false
	if s, ok := fs.find(Noise); ok {
		w.noiseAmp = s.Intensity
		w.noiseRNG = xrand.New(mix(s.Seed, runSeed))
		injected = true
	}
	if s, ok := fs.find(Quantize); ok {
		w.quantStep = s.Intensity
		injected = true
	}
	if s, ok := fs.find(Delay); ok {
		w.delay = 1 + int(math.Round(7*s.Intensity))
		injected = true
	}
	if s, ok := fs.find(Panic); ok {
		rng := xrand.New(mix(s.Seed, runSeed))
		if rng.Bool(s.Intensity) {
			// Panic somewhere in the first few dozen steps, past the
			// initial arm applications so partial state exists.
			w.panicAt = 5 + rng.Intn(20)
			injected = true
		}
	}
	if !injected {
		return inner
	}
	w.inner = inner
	return &w
}

// Step implements core.Controller.
func (c *faultyController) Step() int { return c.inner.Step() }

// InInitialRR implements core.Controller.
func (c *faultyController) InInitialRR() bool { return c.inner.InInitialRR() }

// SetContext implements core.ContextSetter by forwarding to the inner
// controller when it is contextual. Reward-channel faults perturb the
// reward stream, not the telemetry signature, so context flows through
// untouched; for a non-contextual inner the call is a no-op.
func (c *faultyController) SetContext(sig core.Signature) {
	if cs, ok := c.inner.(core.ContextSetter); ok {
		cs.SetContext(sig)
	}
}

// SetRewardProbe implements core.ProbeSetter by forwarding the
// scenario's reward probe to the inner controller when it accepts one.
// Like SetContext, the wrapper must not hide the capability: the faults
// perturb reward values in Reward, wherever those values came from.
func (c *faultyController) SetRewardProbe(p core.RewardProbe) {
	if ps, ok := c.inner.(core.ProbeSetter); ok {
		ps.SetRewardProbe(p)
	}
}

// Reward implements core.Controller, applying noise, quantization, and
// delayed delivery before the inner controller sees the value.
func (c *faultyController) Reward(r float64) {
	c.steps++
	if c.panicAt > 0 && c.steps >= c.panicAt {
		panic(fmt.Sprintf("fault: injected panic at bandit step %d", c.steps))
	}
	if c.noiseAmp > 0 {
		r *= 1 + c.noiseAmp*(2*c.noiseRNG.Float64()-1)
		if r < 0 {
			r = 0
		}
	}
	if c.quantStep > 0 {
		r = math.Round(r/c.quantStep) * c.quantStep
	}
	if c.delay > 0 {
		// FIFO of undelivered rewards: once it holds more than delay
		// entries the controller receives the reward observed delay
		// steps ago; during warm-up it re-sees the oldest observation.
		c.buf = append(c.buf, r)
		if len(c.buf) > c.delay {
			r = c.buf[0]
			copy(c.buf, c.buf[1:])
			c.buf = c.buf[:len(c.buf)-1]
		} else {
			r = c.buf[0]
		}
	}
	c.inner.Reward(r)
}

// ---------------------------------------------------------------------
// Actuation faults: arm-surface wrapper

// Applier is the minimal arm surface shared by prefetch.Tunable and
// scenario.Tunable — what the stuck-arm fault actually needs.
type Applier interface {
	NumArms() int
	Apply(arm int)
}

// stuckApplier drops Apply calls with a fixed probability, leaving the
// previously installed arm active while the agent believes it switched.
type stuckApplier struct {
	inner Applier
	rng   *xrand.Rand
	prob  float64
}

// Arms wraps inner with the set's stuck-arm fault; without one it
// returns inner unchanged.
func Arms(inner Applier, fs Set, runSeed uint64) Applier {
	s, ok := fs.find(StuckArm)
	if !ok {
		return inner
	}
	return &stuckApplier{
		inner: inner,
		rng:   xrand.New(mix(s.Seed, runSeed)),
		prob:  s.Intensity,
	}
}

// NumArms implements Applier.
func (s *stuckApplier) NumArms() int { return s.inner.NumArms() }

// Apply implements Applier, silently failing with the configured
// probability.
func (s *stuckApplier) Apply(arm int) {
	if s.rng.Bool(s.prob) {
		return
	}
	s.inner.Apply(arm)
}

// ---------------------------------------------------------------------
// Workload faults: trace.Generator wrapper

// stormGen relocates the access stream to a fresh address offset every
// period instructions — an abrupt phase change the learned prefetcher
// state is wrong for.
type stormGen struct {
	inner  trace.Generator
	src    trace.ChunkSource
	rng    *xrand.Rand
	period int64
	left   int64 // instructions up to and including the next relocation
	offset uint64
}

// Generator wraps inner with the set's phase-storm fault; without one it
// returns inner unchanged.
func Generator(inner trace.Generator, fs Set, runSeed uint64) trace.Generator {
	s, ok := fs.find(PhaseStorm)
	if !ok {
		return inner
	}
	period := int64(400_000 - s.Intensity*390_000)
	if period < 10_000 {
		period = 10_000
	}
	return &stormGen{
		inner:  inner,
		src:    trace.SourceOf(inner),
		rng:    xrand.New(mix(s.Seed, runSeed)),
		period: period,
		left:   period,
	}
}

// Name implements trace.Generator.
func (g *stormGen) Name() string { return g.inner.Name() }

// advance counts k more instructions down to the next relocation, moving
// the stream every period instructions: the period-th instruction is the
// first to see the new offset.
func (g *stormGen) advance(k int64) {
	for k >= g.left {
		k -= g.left
		g.left = g.period
		// A fresh line-aligned offset within a 1 GB window: far enough
		// to leave every cache and learned pattern cold.
		g.offset = g.rng.Uint64() & 0x3fff_ffc0
	}
	g.left -= k
}

// Next implements trace.Generator.
func (g *stormGen) Next(i *trace.Inst) {
	g.inner.Next(i)
	g.advance(1)
	if g.offset != 0 && (i.Kind == trace.KindLoad || i.Kind == trace.KindStore) {
		i.Addr += g.offset
	}
}

// NextChunk implements trace.ChunkSource: the inner source fills the
// slab, then the storm relocation runs over its memory operations, the
// countdown jumping from one to the next, with the same accounting as
// Next. stormGen deliberately does not implement trace.PhaseAtter — a
// storm-wrapped trace reports phase 0, so contextual agents see the
// storm as one unstructured phase.
func (g *stormGen) NextChunk(c *trace.Chunk) {
	g.src.NextChunk(c)
	prev := -1 // last instruction counted
	for _, m := range c.Mem {
		g.advance(int64(int(m) - prev))
		prev = int(m)
		if g.offset != 0 {
			c.Addr[m] += g.offset
		}
	}
	g.advance(int64(c.Len() - 1 - prev))
}

// ---------------------------------------------------------------------
// Memory-system faults: mem.BandwidthFault implementation

// bwCollapse stretches the DRAM streaming period during collapsed
// windows. It is a pure function of the cycle, so the fault pattern is
// identical no matter how requests interleave.
type bwCollapse struct {
	seed uint64
	prob float64
}

// bwWindowShift sizes the collapse windows (64Ki cycles).
const bwWindowShift = 16

// bwScale is the period multiplier during a collapsed window.
const bwScale = 8.0

// Bandwidth builds the set's DRAM bandwidth fault, or nil when the set
// has none (callers skip installation on nil).
func Bandwidth(fs Set, runSeed uint64) mem.BandwidthFault {
	s, ok := fs.find(BWCollapse)
	if !ok {
		return nil
	}
	return &bwCollapse{seed: mix(s.Seed, runSeed), prob: s.Intensity}
}

// PeriodScale implements mem.BandwidthFault.
func (b *bwCollapse) PeriodScale(cycle int64) float64 {
	window := uint64(cycle) >> bwWindowShift
	h := mix(b.seed, window)
	// Top 53 bits to a uniform float in [0, 1).
	if float64(h>>11)/(1<<53) < b.prob {
		return bwScale
	}
	return 1
}
