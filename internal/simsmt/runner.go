package simsmt

import (
	"context"

	"microbandit/internal/core"
	"microbandit/internal/obs"
	"microbandit/internal/smtwork"
)

// Paper parameters for the SMT use case (Table 6).
const (
	// EpochCycles is one Hill Climbing epoch (64k cycles).
	EpochCycles = 64 * 1024
	// StepEpochs is the bandit step during the main loop (2 epochs).
	StepEpochs = 2
	// StepRREpochs is the longer bandit step during the initial
	// round-robin phase (32 epochs), giving Hill Climbing time to
	// converge per arm (§5.3).
	StepRREpochs = 32
)

// Runner drives the SMT pipeline with Hill Climbing plus an arm
// controller that selects the fetch PG policy every bandit step (§5.3).
//
// When Ctrl is nil the runner is a plain fixed-policy platform: with or
// without Hill Climbing (the Choi and ICount baselines), or with ARPA
// repartitioning the threads' share in Hill Climbing's place.
type Runner struct {
	Sim  *SMT
	HC   *HillClimb
	Ctrl core.Controller
	Arms []Policy
	// ARPA, when non-nil, sets the share every epoch instead of HC.
	ARPA *ARPA

	// EpochLen is the Hill Climbing (or ARPA) epoch in cycles.
	EpochLen int64
	// MainEpochs and RREpochs are the bandit step lengths.
	MainEpochs, RREpochs int

	// Reward selects the bandit reward metric (§6.4); default sum-IPC.
	Reward RewardMode
	// Solo holds the threads' single-threaded IPCs, required by the
	// weighted reward modes.
	Solo [2]float64

	hcEnabled  bool
	curArm     int
	epochInArm int

	stepStartCommits [2]int64
	stepStartCycle   int64

	saved map[int]Snapshot // per-arm Hill Climbing state

	// ArmTrace, when enabled, logs (cycle, arm) for Fig. 7.
	ArmTrace   []ArmSample
	recordArms bool

	// Obs, when non-nil, receives a KindInterval event with the step's
	// per-thread and summed IPC every ObsEvery completed bandit steps.
	Obs      obs.Recorder
	ObsEvery int
	obsSteps int64
}

// ArmSample is one exploration-trace entry.
type ArmSample struct {
	Cycle int64
	Arm   int
}

// NewRunner builds a bandit-driven runner over the Table 1 arm set.
// hillClimb enables the threshold controller (the paper always runs it
// under the Bandit; IC_0000 effectively ignores the threshold since it
// gates nothing).
func NewRunner(sim *SMT, ctrl core.Controller, arms []Policy, hillClimb bool) *Runner {
	r := &Runner{
		Sim:        sim,
		HC:         NewHillClimb(),
		Ctrl:       ctrl,
		Arms:       arms,
		EpochLen:   EpochCycles,
		MainEpochs: StepEpochs,
		RREpochs:   StepRREpochs,
		hcEnabled:  hillClimb,
		saved:      map[int]Snapshot{},
	}
	return r
}

// NewFixedRunner builds a fixed-policy runner (Choi, ICount, or a static
// arm) with Hill Climbing.
func NewFixedRunner(sim *SMT, policy Policy, hillClimb bool) *Runner {
	sim.SetPolicy(policy)
	return &Runner{
		Sim:       sim,
		HC:        NewHillClimb(),
		EpochLen:  EpochCycles,
		hcEnabled: hillClimb,
	}
}

// RecordArms enables the exploration trace.
func (r *Runner) RecordArms() { r.recordArms = true }

// RunCycles simulates n cycles, driving epochs, Hill Climbing, and the
// bandit protocol.
func (r *Runner) RunCycles(n int64) { _ = r.RunCyclesCtx(context.Background(), n) }

// RunCyclesCtx is RunCycles with cooperative cancellation, checked at
// every epoch boundary (an epoch is tens of microseconds of host time).
// Statistics remain valid for the cycles that did run, so callers can
// report partial results after an interrupt.
func (r *Runner) RunCyclesCtx(ctx context.Context, n int64) error {
	end := r.Sim.Cycle() + n
	r.primeArm()
	for r.Sim.Cycle() < end {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.runEpoch()
	}
	return ctx.Err()
}

// primeArm applies the first bandit arm before simulation starts.
func (r *Runner) primeArm() {
	if r.Ctrl == nil || r.Sim.Cycle() > 0 {
		r.setShare()
		return
	}
	r.curArm = r.Ctrl.Step()
	r.applyArm(r.curArm)
	r.stepStartCommits = [2]int64{}
	r.stepStartCycle = 0
}

// applyArm installs a policy arm and restores its Hill Climbing state.
func (r *Runner) applyArm(arm int) {
	r.Sim.SetPolicy(r.Arms[arm])
	if snap, ok := r.saved[arm]; ok {
		r.HC.Restore(snap)
	} else {
		r.HC.Reset()
	}
	r.setShare()
	r.epochInArm = 0
	if r.recordArms {
		if n := len(r.ArmTrace); n == 0 || r.ArmTrace[n-1].Arm != arm {
			r.ArmTrace = append(r.ArmTrace, ArmSample{Cycle: r.Sim.Cycle(), Arm: arm})
		}
	}
}

// setShare applies the partitioner's share: ARPA's when set, otherwise
// Hill Climbing's when enabled.
func (r *Runner) setShare() {
	if r.ARPA != nil {
		r.Sim.SetShare(r.ARPA.Share())
	} else if r.hcEnabled {
		r.Sim.SetShare(r.HC.Share())
	}
}

// runEpoch simulates one Hill Climbing epoch and advances the
// controllers.
func (r *Runner) runEpoch() {
	startCommit := r.Sim.Committed(0) + r.Sim.Committed(1)
	startCycle := r.Sim.Cycle()
	r.Sim.RunCycles(r.EpochLen)
	epochIPC := float64(r.Sim.Committed(0)+r.Sim.Committed(1)-startCommit) /
		float64(r.Sim.Cycle()-startCycle)

	if r.ARPA != nil {
		r.ARPA.EpochEnd(r.Sim)
	} else if r.hcEnabled {
		r.HC.EpochEnd(epochIPC)
	}
	r.setShare()

	if r.Ctrl == nil {
		return
	}
	r.epochInArm++
	stepLen := r.MainEpochs
	if r.Ctrl.InInitialRR() {
		stepLen = r.RREpochs
	}
	if r.epochInArm < stepLen {
		return
	}
	// Bandit step complete: reward per the configured metric (§6.4).
	cycles := r.Sim.Cycle() - r.stepStartCycle
	var ipc [2]float64
	if cycles > 0 {
		ipc[0] = float64(r.Sim.Committed(0)-r.stepStartCommits[0]) / float64(cycles)
		ipc[1] = float64(r.Sim.Committed(1)-r.stepStartCommits[1]) / float64(cycles)
	}
	r.Ctrl.Reward(r.Reward.Reward(ipc, r.Solo))
	if r.Obs != nil && r.ObsEvery > 0 {
		r.obsSteps++
		if r.obsSteps%int64(r.ObsEvery) == 0 {
			r.Obs.Record(obs.Event{Kind: obs.KindInterval, Step: r.obsSteps, Cycle: r.Sim.Cycle(),
				Arm: r.curArm,
				Fields: obs.NewFields().
					Set(obs.FieldIPC0, ipc[0]).
					Set(obs.FieldIPC1, ipc[1]).
					Set(obs.FieldSumIPC, ipc[0]+ipc[1])})
		}
	}
	r.saved[r.curArm] = r.HC.Save()
	next := r.Ctrl.Step()
	r.curArm = next
	r.applyArm(next)
	r.stepStartCommits = [2]int64{r.Sim.Committed(0), r.Sim.Committed(1)}
	r.stepStartCycle = r.Sim.Cycle()
}

// NewBanditAgent builds the paper's SMT Bandit: the registry's "ducb"
// (core.AlgoConfigAt) at the SMT Table 6 hyperparameters over the
// Table 1 arms.
func NewBanditAgent(seed uint64) *core.Agent {
	cfg, err := core.AlgoConfigAt("ducb", len(Table1Arms()), seed, core.SMTC, core.SMTGamma, false)
	if err != nil {
		panic(err)
	}
	return core.MustNew(cfg)
}

// NewSim builds a default-config pipeline over two profile workloads.
func NewSim(a, b smtwork.Profile, seed uint64) *SMT {
	return New(DefaultConfig(), smtwork.NewGen(a, seed), smtwork.NewGen(b, seed+0x9e37))
}
