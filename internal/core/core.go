// Package core implements the Micro-Armed Bandit agent of Gerogiannis &
// Torrellas (MICRO 2023): a lightweight, reusable reinforcement-learning
// agent for microarchitecture decision-making based on Multi-Armed Bandit
// (MAB) algorithms.
//
// The package provides:
//
//   - The three MAB algorithms of the paper's Table 3 — ε-Greedy, Upper
//     Confidence Bound (UCB), and Discounted UCB (DUCB) — expressed as
//     implementations of the Policy interface (nextArm / updSels / updRew).
//   - The general MAB template of Algorithm 1 (initial round-robin phase
//     followed by the main loop), implemented by Agent.
//   - The paper's two microarchitecture-specific modifications (§4.3):
//     reward normalization by the round-robin average reward, and
//     probabilistic round-robin restarts to escape multi-core interference.
//   - The non-MAB exploration heuristics used as baselines (§7.1):
//     Single and Periodic (with a POWER7-style moving-average buffer).
//     The best-static oracle (§6.4) runs one FixedArm controller per arm.
//
// The agent is deliberately tiny: per arm it stores one running reward
// (rTable) and one selection count (nTable), 8 bytes per arm in hardware.
// An Agent owns both tables (one array holds the two rows) and a few
// scalars: its RNG, its step counters and the position of a pending
// round-robin sweep. Everything is deterministic given Config.Seed.
//
// Usage follows the bandit-step protocol of the paper: call Step to obtain
// the arm to apply for the next bandit step, apply it to the controlled
// unit (prefetcher ensemble, SMT fetch unit, ...), run the step, then call
// Reward with the observed step reward (typically IPC). Step and Reward
// must strictly alternate.
package core

import (
	"fmt"
	"math"

	"microbandit/internal/obs"
	"microbandit/internal/xrand"
)

// Tables is the agent's entire learned state: the paper's rTable and
// nTable plus the total selection count. N is a float64 because DUCB
// discounts selection counts by γ < 1; for ε-Greedy and UCB the entries
// stay integral.
type Tables struct {
	R      []float64 // average observed reward per arm (rTable)
	N      []float64 // (possibly discounted) selection count per arm (nTable)
	NTotal float64   // total selections across all arms
}

// Arms returns the number of arms.
func (t *Tables) Arms() int { return len(t.R) }

// BestArm returns the arm with the highest average reward, ties broken by
// the lowest index. It returns 0 for empty tables.
func (t *Tables) BestArm() int {
	best, bestR := 0, math.Inf(-1)
	for i, r := range t.R {
		if r > bestR {
			best, bestR = i, r
		}
	}
	return best
}

// minCount is the floor applied to discounted selection counts so the UCB
// exploration factor stays finite. A real hardware implementation would
// saturate its fixed-point counter the same way.
const minCount = 1e-6

// Policy is one MAB algorithm: the three functions of the paper's Table 3.
// A Policy operates on the agent's Tables; it owns no per-arm state of its
// own (heuristic policies may keep small mode state, e.g. Periodic's
// moving-average buffers).
type Policy interface {
	// Name identifies the algorithm in reports ("DUCB", "UCB", ...).
	Name() string
	// NextArm selects the arm for the next bandit step.
	NextArm(t *Tables, rng *xrand.Rand) int
	// UpdateSelections updates selection counts after arm was chosen
	// (the paper's updSels).
	UpdateSelections(t *Tables, arm int)
	// UpdateReward folds the step reward into the chosen arm's average
	// (the paper's updRew).
	UpdateReward(t *Tables, arm int, rStep float64)
	// Reset clears any internal mode state (not the Tables).
	Reset()
}

// Config configures an Agent.
type Config struct {
	// Arms is the number of actions available (M in Algorithm 1).
	Arms int
	// Policy is the MAB algorithm or exploration heuristic to run.
	Policy Policy
	// Normalize enables the paper's first modification (§4.3): after the
	// initial round-robin phase, all rewards are divided by the average
	// round-robin reward so low-IPC and high-IPC workloads explore
	// comparably under a common exploration constant c.
	Normalize bool
	// RRRestartProb enables the paper's second modification (§4.3): with
	// this probability per main-loop step, the agent re-runs the initial
	// round-robin phase (without resetting learned state) so multi-core
	// interference during initial exploration can be corrected. The
	// paper uses 0.001 for 4-core prefetching.
	RRRestartProb float64
	// Seed seeds the agent's private RNG.
	Seed uint64
	// RecordTrace keeps the per-step arm choices for exploration plots
	// (Fig. 7). Off by default to keep the agent allocation-free.
	RecordTrace bool
	// Obs receives telemetry events (arm choices, rewards, state
	// snapshots, §4.3 restarts). nil — the default — disables emission
	// entirely; the hot path then costs one nil check per call.
	Obs obs.Recorder
	// ObsEvery is the rTable/nTable snapshot cadence in completed
	// bandit steps (0 disables snapshots; the other events are
	// unaffected). Only meaningful with a non-nil Obs.
	ObsEvery int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Arms < 1 {
		return fmt.Errorf("core: config needs at least 1 arm, got %d", c.Arms)
	}
	if c.Policy == nil {
		return fmt.Errorf("core: config needs a policy")
	}
	if c.RRRestartProb < 0 || c.RRRestartProb > 1 {
		return fmt.Errorf("core: rr restart probability %v outside [0,1]", c.RRRestartProb)
	}
	return nil
}

// Agent is the Micro-Armed Bandit: Algorithm 1 of the paper wrapped around
// a Policy, with the two microarchitecture modifications of §4.3. It holds
// its tables and RNG by value.
//
// The zero value is not usable; construct with New.
type Agent struct {
	cfg    Config
	tables Tables
	rng    xrand.Rand

	steps      int  // completed bandit steps
	currentArm int  // arm chosen by the last Step call
	inStep     bool // Step called, Reward pending
	// sweep is the next arm of the pending round-robin sweep (the
	// initial phase or a §4.3 restart); Arms when no sweep is pending.
	// A sweep always runs arms 0..Arms-1 in order, so the pending forced
	// arms are exactly sweep..Arms-1.
	sweep int

	rAvg       float64 // round-robin average reward used for normalization
	normalized bool    // rAvg has been computed

	trace []int // arm per step, if RecordTrace

	restarts int // completed RR-restart triggers
}

// New constructs an Agent. It returns an error for invalid configs.
func New(cfg Config) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := new(Agent)
	a.init(cfg)
	return a, nil
}

// init builds a fresh agent for a validated config in place: zeroed
// tables, a seeded RNG and the initial round-robin sweep pending. New and
// Slab.Alloc both construct through it. One allocation holds both table
// rows; the full slice expression pins R's cap so an append through it
// could never bleed into N.
func (a *Agent) init(cfg Config) {
	arms := cfg.Arms
	rn := make([]float64, 2*arms)
	*a = Agent{
		cfg:    cfg,
		tables: Tables{R: rn[:arms:arms], N: rn[arms:]},
		rng:    *xrand.New(cfg.Seed),
	}
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(cfg Config) *Agent {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Arms returns the number of arms.
func (a *Agent) Arms() int { return a.cfg.Arms }

// StepsTaken returns the number of completed bandit steps.
func (a *Agent) StepsTaken() int { return a.steps }

// InInitialRR reports whether the agent is still in the initial
// round-robin phase of Algorithm 1 (useful for the SMT use case, which
// uses a longer bandit step during this phase, §5.3).
func (a *Agent) InInitialRR() bool { return a.steps < a.cfg.Arms }

// Restarts returns how many §4.3 round-robin restarts have triggered.
func (a *Agent) Restarts() int { return a.restarts }

// StepOpen reports whether a Step call is awaiting its Reward. A restored
// snapshot taken between Step and Reward resumes with the step open.
func (a *Agent) StepOpen() bool { return a.inStep }

// Step selects and returns the arm to apply for the next bandit step. It
// panics if called twice without an intervening Reward — that protocol
// violation is a programming error, not a runtime condition.
func (a *Agent) Step() int {
	if a.inStep {
		panic("core: Step called twice without Reward")
	}
	a.inStep = true

	initialRR := a.steps < a.cfg.Arms

	// §4.3 modification 2: probabilistic round-robin restart during the
	// main loop, preserving learned state.
	forced := a.sweep < a.cfg.Arms
	if !initialRR && !forced && a.rng.Bool(a.cfg.RRRestartProb) {
		a.sweep = 0
		forced = true
		a.restarts++
		if a.cfg.Obs != nil {
			a.cfg.Obs.Record(obs.Event{Kind: obs.KindRestart, Step: int64(a.steps)})
		}
	}

	var arm int
	switch {
	case forced:
		arm = a.sweep
		a.sweep++
		if !initialRR {
			// Restart sweeps update counts through the policy, so
			// DUCB keeps discounting during the sweep.
			a.policyUpdateSelections(arm)
		}
	default:
		arm = a.policyNextArm()
		a.policyUpdateSelections(arm)
	}
	a.currentArm = arm
	if a.cfg.RecordTrace {
		a.trace = append(a.trace, arm)
	}
	if a.cfg.Obs != nil {
		a.cfg.Obs.Record(obs.Event{Kind: obs.KindArm, Step: int64(a.steps), Arm: arm, Forced: forced})
	}
	return arm
}

// Reward observes the reward of the bandit step opened by the last Step
// call. It panics if no step is open.
func (a *Agent) Reward(rStep float64) {
	if !a.inStep {
		panic("core: Reward called without a pending Step")
	}
	a.inStep = false

	initialRR := a.steps < a.cfg.Arms
	arm := a.currentArm
	raw := rStep

	if a.cfg.Normalize && a.normalized {
		rStep = a.normalizeReward(rStep)
	}

	if initialRR {
		// Algorithm 1 lines 4-10: first visit seeds the arm directly.
		a.tables.N[arm] = 1
		a.tables.NTotal++
		a.tables.R[arm] = rStep
	} else {
		a.policyUpdateReward(arm, rStep)
	}
	if a.cfg.Obs != nil {
		a.cfg.Obs.Record(obs.Event{Kind: obs.KindReward, Step: int64(a.steps), Arm: arm, Value: rStep, Raw: raw})
	}
	a.steps++

	// §4.3 modification 1: once the initial round-robin phase finishes,
	// compute the average initial reward and rescale both the seeded
	// rTable entries and every future step reward by it.
	if a.cfg.Normalize && !a.normalized && a.steps == a.cfg.Arms {
		a.computeNormalization()
	}

	if a.cfg.Obs != nil && a.cfg.ObsEvery > 0 && a.steps%a.cfg.ObsEvery == 0 {
		a.cfg.Obs.Record(obs.Event{
			Kind:   obs.KindSnapshot,
			Step:   int64(a.steps),
			RTable: append([]float64(nil), a.tables.R...),
			NTable: append([]float64(nil), a.tables.N...),
			NTotal: a.tables.NTotal,
			RAvg:   a.rAvg,
		})
	}
}

// policyNextArm dispatches Policy.NextArm with a concrete-type fast
// path for the built-in policies, so the hot path inlines the selection
// arithmetic instead of paying an interface call per step. Each case
// calls the same free function the policy's own method delegates to —
// devirtualizing cannot change a single bit of the decision stream.
// User-defined policies take the default interface branch.
func (a *Agent) policyNextArm() int {
	t := &a.tables
	switch p := a.cfg.Policy.(type) {
	case *DUCB:
		return argmaxPotential(t, p.C)
	case *UCB:
		return argmaxPotential(t, p.C)
	case *EpsilonGreedy:
		return epsNextArm(t, p.Epsilon, &a.rng)
	default:
		return a.cfg.Policy.NextArm(t, &a.rng)
	}
}

// policyUpdateSelections is the devirtualized Policy.UpdateSelections.
func (a *Agent) policyUpdateSelections(arm int) {
	t := &a.tables
	switch p := a.cfg.Policy.(type) {
	case *DUCB:
		discountSelect(t, p.Gamma, arm)
	case *UCB, *EpsilonGreedy:
		countSelect(t, arm)
	default:
		a.cfg.Policy.UpdateSelections(t, arm)
	}
}

// policyUpdateReward is the devirtualized Policy.UpdateReward.
func (a *Agent) policyUpdateReward(arm int, rStep float64) {
	switch a.cfg.Policy.(type) {
	case *DUCB, *UCB, *EpsilonGreedy:
		foldReward(&a.tables, arm, rStep)
	default:
		a.cfg.Policy.UpdateReward(&a.tables, arm, rStep)
	}
}

// normalizeReward rescales rStep by the stored round-robin average. A
// degenerate average — zero, negative, or non-finite, as produced by an
// all-miss warmup or a stuck-arm fault during the round-robin phase —
// falls back to the unnormalized reward instead of dividing by it:
// computeNormalization pins rAvg to 1 in those cases, and the explicit
// guard here keeps the fallback even if rAvg is corrupted later (e.g.
// by a fault injector poking exported state).
func (a *Agent) normalizeReward(rStep float64) float64 {
	if !(a.rAvg > 0) || math.IsInf(a.rAvg, 0) {
		return rStep
	}
	return rStep / a.rAvg
}

// computeNormalization derives rAvg from the seeded rTable and rescales it.
// Degenerate (non-positive) averages disable normalization: dividing by
// zero or a negative reward would invert the arm ordering.
func (a *Agent) computeNormalization() {
	sum := 0.0
	for _, r := range a.tables.R {
		sum += r
	}
	avg := sum / float64(a.cfg.Arms)
	if avg <= 0 || math.IsNaN(avg) || math.IsInf(avg, 0) {
		a.rAvg = 1
		a.normalized = true
		return
	}
	a.rAvg = avg
	for i := range a.tables.R {
		a.tables.R[i] /= avg
	}
	a.normalized = true
}

// BestArm returns the arm with the highest learned average reward.
func (a *Agent) BestArm() int { return a.tables.BestArm() }

// CurrentArm returns the arm chosen by the most recent Step call.
func (a *Agent) CurrentArm() int { return a.currentArm }

// Rewards returns a copy of the rTable.
func (a *Agent) Rewards() []float64 {
	return append([]float64(nil), a.tables.R...)
}

// Counts returns a copy of the nTable.
func (a *Agent) Counts() []float64 {
	return append([]float64(nil), a.tables.N...)
}

// RAvg returns the normalization constant (0 until the initial round-robin
// phase has completed or if normalization is disabled).
func (a *Agent) RAvg() float64 { return a.rAvg }

// Trace returns the recorded per-step arm choices (nil unless
// Config.RecordTrace is set).
func (a *Agent) Trace() []int { return a.trace }

// SetRecorder attaches (or, with nil, detaches) a telemetry recorder
// after construction, with the given snapshot cadence. It exists so
// registry-built agents (ParseAlgo, NewByName-style factories) can be
// instrumented without widening every constructor signature.
func (a *Agent) SetRecorder(rec obs.Recorder, every int) {
	a.cfg.Obs = rec
	a.cfg.ObsEvery = every
}

// Reset returns the agent to its initial state (zeroed tables, re-seeded
// RNG, initial round-robin phase pending). The tables are cleared in
// place.
func (a *Agent) Reset() {
	clear(a.tables.R)
	clear(a.tables.N)
	a.tables.NTotal = 0
	a.rng = *xrand.New(a.cfg.Seed)
	a.steps = 0
	a.currentArm = 0
	a.inStep = false
	a.sweep = 0
	a.rAvg = 0
	a.normalized = false
	a.trace = nil
	a.restarts = 0
	a.cfg.Policy.Reset()
}

// Paper hyperparameters (Table 6). These are the tuned values used by the
// evaluation; callers may of course choose their own.
const (
	// PrefetchGamma is the DUCB forgetting factor for the data
	// prefetching use case.
	PrefetchGamma = 0.999
	// PrefetchC is the DUCB exploration constant for prefetching.
	PrefetchC = 0.04
	// PrefetchArms is the number of prefetching arms (Table 7).
	PrefetchArms = 11
	// SMTGamma is the DUCB forgetting factor for SMT fetch PG selection.
	SMTGamma = 0.975
	// SMTC is the DUCB exploration constant for SMT fetch PG selection.
	SMTC = 0.01
	// SMTArms is the number of pruned fetch PG policy arms (Table 1).
	SMTArms = 6
	// RRRestartProb4Core is the round-robin restart probability used in
	// the 4-core prefetching experiments.
	RRRestartProb4Core = 0.001
)
