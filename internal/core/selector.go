package core

import (
	"fmt"

	"microbandit/internal/obs"
)

// Selector is the hierarchical bandit: a high-level Bandit whose arms
// are whole low-level controllers, picked per workload. It covers both
// the paper's future-work extension (§9) — during tuning the authors
// observed that different DUCB hyperparameters (γ, c) suit different
// applications, so NewDUCBSweepMeta runs one DUCB agent per (c, γ) pair
// — and heterogeneous agent selection (ε-Greedy, UCB, DUCB, contextual
// DUCB, ...), the "bandit framework for optimal selection of RL agents"
// idea from the related work: no single algorithm wins on every
// application, so let a bandit learn which agent to trust.
//
// Every low-level controller opens a step and observes every step
// reward, but only the controller chosen by the high-level bandit steers
// the hardware. The high-level bandit treats "which candidate" as its
// own arm space and is rewarded with the same step reward. Selector
// implements Controller, ContextSetter, and ProbeSetter, forwarding
// context signatures and reward probes to the low-level controllers that
// accept them — so contextual agents and scenario probes compose with
// selection unchanged.
type Selector struct {
	high   *Agent
	low    []Controller
	labels []string
	arms   int

	current int  // low-level controller selected for the open step
	inStep  bool // Step called, Reward pending

	rec     obs.Recorder // meta-switch telemetry; nil = disabled
	started bool         // a level has been selected at least once
}

// NewSelector builds an agent selector. highCfg configures the
// high-level bandit (its Arms field is overwritten with len(lows));
// lows are the candidate controllers, labels their display names, and
// arms the hardware arm count every low-level controller decides over.
func NewSelector(highCfg Config, lows []Controller, labels []string, arms int) (*Selector, error) {
	if len(lows) < 2 {
		return nil, fmt.Errorf("core: selector needs at least 2 candidate agents, got %d", len(lows))
	}
	if len(labels) != len(lows) {
		return nil, fmt.Errorf("core: selector has %d labels for %d agents", len(labels), len(lows))
	}
	if arms < 1 {
		return nil, fmt.Errorf("core: selector needs at least 1 hardware arm, got %d", arms)
	}
	for i, l := range lows {
		if a, ok := l.(interface{ Arms() int }); ok && a.Arms() != arms {
			return nil, fmt.Errorf("core: selector candidate %d has %d arms, want %d", i, a.Arms(), arms)
		}
	}
	highCfg.Arms = len(lows)
	high, err := New(highCfg)
	if err != nil {
		return nil, fmt.Errorf("core: selector high level: %w", err)
	}
	return &Selector{high: high, low: lows, labels: labels, arms: arms}, nil
}

// Arms returns the hardware-visible arm count.
func (s *Selector) Arms() int { return s.arms }

// Levels returns the number of candidate agents.
func (s *Selector) Levels() int { return len(s.low) }

// Labels returns the candidate agents' display names.
func (s *Selector) Labels() []string { return s.labels }

// CurrentLevel returns the candidate index steering the open (or most
// recent) step.
func (s *Selector) CurrentLevel() int { return s.current }

// StepOpen reports whether a Step call is awaiting its Reward.
func (s *Selector) StepOpen() bool { return s.inStep }

// BestLevel returns the candidate the high-level bandit currently rates
// best.
func (s *Selector) BestLevel() int { return s.high.BestArm() }

// BestArm returns the hardware arm the best-rated candidate currently
// rates best, or -1 when that candidate does not report one.
func (s *Selector) BestArm() int {
	if c, ok := s.low[s.BestLevel()].(interface{ BestArm() int }); ok {
		return c.BestArm()
	}
	return -1
}

// Step implements Controller: the high-level bandit picks a candidate;
// that candidate picks the hardware arm. Every other candidate also
// opens a step so it can learn from the shared reward.
func (s *Selector) Step() int {
	if s.inStep {
		panic("core: Selector Step called twice without Reward")
	}
	s.inStep = true
	prev := s.current
	s.current = s.high.Step()
	if s.rec != nil && (!s.started || s.current != prev) {
		s.rec.Record(obs.Event{Kind: obs.KindMetaSwitch, Step: int64(s.high.StepsTaken()), Arm: s.current})
	}
	s.started = true
	arm := 0
	for i, l := range s.low {
		a := l.Step()
		if i == s.current {
			arm = a
		}
	}
	return arm
}

// Reward implements Controller: the shared step reward trains the
// high-level bandit and every candidate.
//
// Off-policy caveat: a non-selected candidate is credited as if its own
// arm choice had produced the reward. With high temporal homogeneity the
// candidates mostly agree on the arm, so the approximation is tight — and
// it is what a storage-free shadow implementation can do in hardware.
func (s *Selector) Reward(rStep float64) {
	if !s.inStep {
		panic("core: Selector Reward called without a pending Step")
	}
	s.inStep = false
	s.high.Reward(rStep)
	for _, l := range s.low {
		l.Reward(rStep)
	}
}

// InInitialRR implements Controller: true while the selector or any
// candidate still explores round-robin.
func (s *Selector) InInitialRR() bool {
	if s.high.InInitialRR() {
		return true
	}
	for _, l := range s.low {
		if l.InInitialRR() {
			return true
		}
	}
	return false
}

// SetContext implements ContextSetter by forwarding the signature to
// every candidate that is contextual. The high-level bandit stays
// context-free: which agent suits a workload is exactly the long-horizon
// judgement that should not reset per phase.
func (s *Selector) SetContext(sig Signature) {
	for _, l := range s.low {
		if cs, ok := l.(ContextSetter); ok {
			cs.SetContext(sig)
		}
	}
}

// SetRewardProbe implements ProbeSetter by forwarding the scenario's
// probe to every candidate that accepts one.
func (s *Selector) SetRewardProbe(p RewardProbe) {
	for _, l := range s.low {
		if ps, ok := l.(ProbeSetter); ok {
			ps.SetRewardProbe(p)
		}
	}
}

// SetRecorder attaches a telemetry recorder: the high-level selector
// emits its arm/reward/snapshot events (its arms are candidate indices)
// and the Selector emits KindMetaSwitch whenever the driving candidate
// changes. Candidates stay silent to keep the stream single-voiced.
func (s *Selector) SetRecorder(rec obs.Recorder, every int) {
	s.rec = rec
	s.high.SetRecorder(rec, every)
}

// Reset restores the selector and every candidate that supports
// resetting to their initial state.
func (s *Selector) Reset() {
	s.high.Reset()
	for _, l := range s.low {
		if r, ok := l.(interface{ Reset() }); ok {
			r.Reset()
		}
	}
	s.current = 0
	s.inStep = false
	s.started = false
}

// NewDUCBSweepMeta builds the §9 configuration: one low-level DUCB agent
// per (c, γ) pair over the given arm count, labelled by its pair, under a
// DUCB high-level selector with the same exploration constant as the
// first pair.
func NewDUCBSweepMeta(arms int, pairs [][2]float64, normalize bool, seed uint64) (*Selector, error) {
	if len(pairs) < 2 {
		return nil, fmt.Errorf("core: hyperparameter sweep needs at least 2 (c, gamma) pairs")
	}
	lows := make([]Controller, len(pairs))
	labels := make([]string, len(pairs))
	for i, p := range pairs {
		a, err := New(Config{
			Arms:      arms,
			Policy:    NewDUCB(p[0], p[1]),
			Normalize: normalize,
			Seed:      seed + uint64(i)*0x9e37,
		})
		if err != nil {
			return nil, err
		}
		lows[i] = a
		labels[i] = fmt.Sprintf("ducb(c=%g,gamma=%g)", p[0], p[1])
	}
	return NewSelector(Config{
		Policy:    NewDUCB(pairs[0][0], 0.999),
		Normalize: normalize,
		Seed:      seed ^ 0x4d657461,
	}, lows, labels, arms)
}

var (
	_ Controller    = (*Selector)(nil)
	_ ContextSetter = (*Selector)(nil)
	_ ProbeSetter   = (*Selector)(nil)
)
