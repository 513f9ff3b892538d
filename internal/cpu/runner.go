package cpu

import (
	"context"

	"microbandit/internal/core"
	"microbandit/internal/hw"
	"microbandit/internal/mem"
	"microbandit/internal/obs"
	"microbandit/internal/prefetch"
)

// StepL2Accesses is the paper's bandit step length for prefetching: 1,000
// L2 demand accesses (Table 6).
const StepL2Accesses = 1000

// Runner wires a Core, its memory hierarchy, the L2 (and optionally L1)
// prefetchers, and — when the L2 prefetcher is bandit-controlled — the
// controller that selects arms every bandit step.
//
// The runner reproduces the paper's control loop (§5.2, §6.1): the bandit
// step is a fixed number of L2 demand accesses; the step reward is the
// core's IPC over the step; after each step the controller picks the next
// arm, which takes effect only after the conservative 500-cycle selection
// latency, during which the prefetcher keeps operating with the old arm.
type Runner struct {
	Core *Core
	Hier *mem.Hierarchy

	// L2Pf is the L2 prefetcher (fills L2/LLC). May be prefetch.Null{}.
	L2Pf prefetch.Prefetcher
	// L1Pf, when non-nil, is an additional L1 prefetcher (fills L1/L2) —
	// the multi-level configurations of Fig. 12.
	L1Pf prefetch.Prefetcher

	// Ctrl selects arms on Tunable when both are non-nil.
	Ctrl core.Controller
	// Tunable is the arm-controlled unit the bandit steers. Historically
	// always the L2 prefetcher itself; the scenario subsystem plugs in
	// other decision problems (DRAM scheduling, cache insertion, degree
	// throttling) through the same Actuator surface.
	Tunable Actuator

	// Probe, when non-nil, replaces the built-in step-IPC reward with a
	// scenario-specific one (core.RewardProbe). The probe is called
	// exactly once per completed bandit step, after the step's simulation
	// and before the next arm selection, so counter-diffing probes see
	// one step per call.
	Probe core.RewardProbe

	// StepL2 is the bandit step length in L2 demand accesses.
	StepL2 int
	// SelectLatency is the arm-selection latency in cycles.
	SelectLatency int64

	stepAccesses   int
	stepStartInsts int64
	stepStartCycle int64

	pendingArm      int
	pendingActivate int64
	havePending     bool

	// bandwidth-utilization sampling for BandwidthAware prefetchers.
	bwLastBusy  float64
	bwLastCycle int64

	// l2Target and l2BW are L2Pf's optional interfaces, nil when it
	// lacks one. bindL2 resolves them at every Run/RunCtx entry, since
	// L2Pf is a public field a caller may set between runs.
	l2Target prefetch.TargetAware
	l2BW     prefetch.BandwidthAware

	// sigLast is the counter snapshot the next context signature diffs
	// against. Only maintained when Ctrl implements core.ContextSetter.
	sigLast obsBaseline

	// ArmTrace, when enabled via RecordArms, logs (cycle, arm) pairs;
	// consecutive selections of the same arm collapse into one sample.
	ArmTrace    []ArmSample
	recordArms  bool
	rewardCount int64

	// Obs, when non-nil, receives KindInterval substrate measurements
	// (interval IPC, MPKI, prefetch accuracy/coverage, DRAM bandwidth
	// utilization) every ObsEvery bandit steps. For non-learning runs
	// (Ctrl == nil) the interval is ObsEvery windows of StepL2 demand
	// accesses, so conventional prefetchers report on the same scale.
	Obs      obs.Recorder
	ObsEvery int

	// ObsSimCounters additionally emits the simulator-effectiveness
	// field ff_coverage (fast-forward coverage) on each interval. Off by
	// default so recorded telemetry streams stay byte-identical with
	// builds that predate the field; the -sim-fields flag of
	// mab-prefetch and mab-trace replay turns it on.
	ObsSimCounters bool

	obsSteps int64 // completed telemetry windows
	obsLast  obsBaseline

	// pfBuf is the reusable prefetch-proposal buffer handed to
	// Prefetcher.Operate; reuse keeps the per-L2-access path allocation
	// free.
	pfBuf []uint64
}

// obsBaseline is the cumulative-counter snapshot an interval diffs
// against.
type obsBaseline struct {
	insts, cycles int64
	stats         mem.Stats
	class         mem.Classification
	busy          float64

	// Fast-forwarded instructions (only consumed when ObsSimCounters
	// is set).
	ff int64
}

// ArmSample is one entry of the exploration trace (Fig. 7).
type ArmSample struct {
	Cycle int64
	Arm   int
}

// Actuator is the minimal arm surface the runner drives: the
// scenario-agnostic half of prefetch.Tunable (and of scenario.Tunable,
// which both satisfy it structurally). Apply must tolerate being called
// repeatedly with the current arm and must not allocate in steady state.
type Actuator interface {
	// NumArms returns the number of selectable arms.
	NumArms() int
	// Apply switches the unit to the given arm; panics if out of range.
	Apply(arm int)
}

// NewRunner builds a runner. ctrl and tun may both be nil for
// conventional (non-learning) prefetchers.
func NewRunner(c *Core, l2pf prefetch.Prefetcher, ctrl core.Controller, tun Actuator) *Runner {
	r := &Runner{
		Core:          c,
		Hier:          c.Hier(),
		L2Pf:          l2pf,
		Ctrl:          ctrl,
		Tunable:       tun,
		StepL2:        StepL2Accesses,
		SelectLatency: hw.SelectLatencyConservative,
		pendingArm:    -1,
	}
	c.OnL2Access = r.onL2Access
	r.bindL2()
	return r
}

// bindL2 resolves L2Pf's optional interfaces for onL2Access.
func (r *Runner) bindL2() {
	r.l2Target, _ = r.L2Pf.(prefetch.TargetAware)
	r.l2BW, _ = r.L2Pf.(prefetch.BandwidthAware)
}

// RecordArms enables the exploration trace.
func (r *Runner) RecordArms() { r.recordArms = true }

// Steps returns the number of completed bandit steps.
func (r *Runner) Steps() int64 { return r.rewardCount }

// Run simulates n instructions, driving the bandit protocol.
func (r *Runner) Run(n int64) {
	r.bindL2()
	r.primeFirstArm()
	r.Core.RunInsts(n)
}

// runCtxChunk is how many instructions RunCtx simulates between
// cancellation checks: small enough that an interrupt lands within tens
// of milliseconds, large enough that the check is free.
const runCtxChunk = 100_000

// RunCtx is Run with cooperative cancellation: the simulation proceeds
// in chunks and stops at the first chunk boundary after ctx is done,
// returning ctx's error. All statistics (IPC, hierarchy counters, arm
// trace, telemetry) remain valid for the instructions that did run, so
// callers can report partial results after an interrupt.
func (r *Runner) RunCtx(ctx context.Context, n int64) error {
	r.bindL2()
	r.primeFirstArm()
	for n > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := int64(runCtxChunk)
		if chunk > n {
			chunk = n
		}
		r.Core.RunInsts(chunk)
		n -= chunk
	}
	return ctx.Err()
}

// primeFirstArm applies the episode's first arm immediately (no
// selection latency) on the first call of a bandit-controlled run.
func (r *Runner) primeFirstArm() {
	if r.Ctrl != nil && r.Tunable != nil && r.rewardCount == 0 && !r.havePending && r.stepAccesses == 0 {
		r.setContext()
		arm := r.Ctrl.Step()
		r.Tunable.Apply(arm)
		r.logArm(0, arm)
	}
}

// setContext feeds the upcoming bandit step's state signature to a
// contextual controller: the generator's phase id (when the trace is
// phase-structured) plus the MPKI and DRAM-bandwidth-utilization bands of
// the interval since the previous signature point. Plain controllers are
// never asked — the hook costs one type assertion per bandit step.
func (r *Runner) setContext() {
	cs, ok := r.Ctrl.(core.ContextSetter)
	if !ok {
		return
	}
	phase := r.Core.Phase()
	cur := obsBaseline{
		insts:  r.Core.Insts(),
		cycles: r.Core.Cycles(),
		busy:   r.Hier.DRAM().BusyCycles(),
	}
	cur.stats.LLCMisses = r.Hier.Stats().LLCMisses
	last := r.sigLast
	r.sigLast = cur

	mpki, bwUtil := 0.0, 0.0
	if dInsts := float64(cur.insts - last.insts); dInsts > 0 {
		mpki = float64(cur.stats.LLCMisses-last.stats.LLCMisses) / (dInsts / 1000)
	}
	if dCycles := float64(cur.cycles - last.cycles); dCycles > 0 {
		bwUtil = (cur.busy - last.busy) / dCycles
		if bwUtil > 1 {
			bwUtil = 1
		}
	}
	cs.SetContext(core.SignatureOf(phase, mpki, bwUtil))
}

func (r *Runner) logArm(cycle int64, arm int) {
	if !r.recordArms {
		return
	}
	if n := len(r.ArmTrace); n > 0 && r.ArmTrace[n-1].Arm == arm {
		return
	}
	r.ArmTrace = append(r.ArmTrace, ArmSample{Cycle: cycle, Arm: arm})
}

// onL2Access is the per-L2-demand-access hook: trains prefetchers, issues
// their proposals, and advances the bandit step machinery.
func (r *Runner) onL2Access(pc, addr uint64, hit bool, cycle int64) {
	// Activate a pending arm once its selection latency has elapsed.
	if r.havePending && cycle >= r.pendingActivate {
		r.Tunable.Apply(r.pendingArm)
		r.logArm(cycle, r.pendingArm)
		r.havePending = false
	}

	ev := prefetch.Event{PC: pc, Addr: addr, Hit: hit, Cycle: cycle}
	if r.L2Pf != nil {
		target := mem.PrefToL2
		if r.l2Target != nil && r.l2Target.LLCOnly() {
			target = mem.PrefToLLC // §9 target-cache-level extension
		}
		r.pfBuf = r.L2Pf.Operate(ev, r.pfBuf[:0])
		for _, a := range r.pfBuf {
			r.Hier.Prefetch(a, cycle, target)
		}
	}
	if r.L1Pf != nil {
		r.pfBuf = r.L1Pf.Operate(ev, r.pfBuf[:0])
		for _, a := range r.pfBuf {
			r.Hier.Prefetch(a, cycle, mem.PrefToL1)
		}
	}

	// Feed DRAM bandwidth utilization to bandwidth-aware prefetchers
	// (Pythia) over a sliding window.
	if r.l2BW != nil && cycle > r.bwLastCycle+1024 {
		busy := r.Hier.DRAM().BusyCycles()
		window := float64(cycle - r.bwLastCycle)
		util := (busy - r.bwLastBusy) / window
		if util > 1 {
			util = 1
		}
		r.l2BW.SetBandwidthUtil(util)
		r.bwLastBusy, r.bwLastCycle = busy, cycle
	}

	if r.Ctrl == nil || r.Tunable == nil {
		// Non-learning run: telemetry windows still advance on the same
		// StepL2-access scale so conventional prefetchers are comparable.
		if r.Obs != nil {
			r.stepAccesses++
			if r.stepAccesses >= r.StepL2 {
				r.stepAccesses = 0
				r.obsWindow(cycle)
			}
		}
		return
	}
	r.stepAccesses++
	if r.stepAccesses < r.StepL2 {
		return
	}
	// Bandit step complete: reward is the step's IPC, or the scenario
	// probe's measurement when one is installed.
	insts := r.Core.Insts() - r.stepStartInsts
	cycles := r.Core.Cycles() - r.stepStartCycle
	reward := 0.0
	if r.Probe != nil {
		reward = r.Probe.StepReward()
	} else if cycles > 0 {
		reward = float64(insts) / float64(cycles)
	}
	r.Ctrl.Reward(reward)
	r.rewardCount++
	r.obsWindow(cycle)
	r.setContext()
	arm := r.Ctrl.Step()
	r.pendingArm = arm
	r.pendingActivate = cycle + r.SelectLatency
	r.havePending = true

	r.stepAccesses = 0
	r.stepStartInsts = r.Core.Insts()
	r.stepStartCycle = r.Core.Cycles()
}

// obsWindow closes one telemetry window and, every ObsEvery windows,
// emits a KindInterval event with substrate measurements computed as
// deltas against the previous emission. All rates guard their
// denominators: an empty interval reports 0, never NaN/Inf.
func (r *Runner) obsWindow(cycle int64) {
	if r.Obs == nil || r.ObsEvery <= 0 {
		return
	}
	r.obsSteps++
	if r.obsSteps%int64(r.ObsEvery) != 0 {
		return
	}
	cur := obsBaseline{
		insts:  r.Core.Insts(),
		cycles: r.Core.Cycles(),
		stats:  r.Hier.Stats(),
		class:  r.Hier.Classify(),
		busy:   r.Hier.DRAM().BusyCycles(),
	}
	if r.ObsSimCounters {
		cur.ff = r.Core.FFInsts()
	}
	last := r.obsLast
	r.obsLast = cur

	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	dInsts := float64(cur.insts - last.insts)
	dCycles := float64(cur.cycles - last.cycles)
	dMisses := float64(cur.stats.LLCMisses - last.stats.LLCMisses)
	dTimely := float64(cur.class.Timely - last.class.Timely)
	dLate := float64(cur.class.Late - last.class.Late)
	dWrong := float64(cur.class.Wrong - last.class.Wrong)
	bwUtil := ratio(cur.busy-last.busy, dCycles)
	if bwUtil > 1 {
		bwUtil = 1
	}
	fields := obs.NewFields().
		Set(obs.FieldIPC, ratio(dInsts, dCycles)).
		Set(obs.FieldMPKI, ratio(dMisses, dInsts/1000)).
		Set(obs.FieldPrefAccuracy, ratio(dTimely+dLate, dTimely+dLate+dWrong)).
		Set(obs.FieldPrefCoverage, ratio(dTimely, dTimely+dMisses)).
		Set(obs.FieldDRAMBWUtil, bwUtil)
	if r.ObsSimCounters {
		fields.Set(obs.FieldFFCoverage, ratio(float64(cur.ff-last.ff), dInsts))
	}
	r.Obs.Record(obs.Event{Kind: obs.KindInterval, Step: r.obsSteps, Cycle: cycle, Fields: fields})
}
