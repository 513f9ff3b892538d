// Package microbandit is a Go reproduction of "Micro-Armed Bandit:
// Lightweight & Reusable Reinforcement Learning for Microarchitecture
// Decision-Making" (Gerogiannis & Torrellas, MICRO 2023).
//
// The package is the public facade over the reusable agent: the
// Multi-Armed Bandit algorithms of the paper (ε-Greedy, UCB, and the
// Discounted UCB the hardware agent implements), the Algorithm 1 template
// with its initial round-robin phase, and the two microarchitecture
// modifications of §4.3 (reward normalization and probabilistic
// round-robin restarts). An Agent owns its two per-arm tables (rTable
// and nTable) and a few scalars.
//
// A downstream user drives the agent with the bandit-step protocol:
//
//	agent := microbandit.MustNew(microbandit.Config{
//		Arms:      11,
//		Policy:    microbandit.NewDUCB(0.04, 0.999),
//		Normalize: true,
//		Seed:      1,
//	})
//	for {
//		arm := agent.Step()   // apply this configuration ...
//		reward := runOneBanditStep(arm)
//		agent.Reward(reward)  // ... and report what it earned
//	}
//
// The evaluation substrates that reproduce the paper's experiments — the
// trace-driven core and cache hierarchy, the prefetchers, the SMT
// pipeline, and the experiment harness — live under internal/ and are
// exercised by the cmd/ tools, the examples/ programs, and the root
// benchmark suite (one benchmark per paper table and figure).
package microbandit

import "microbandit/internal/core"

// Re-exported agent API. These are aliases, not wrappers: the facade and
// internal/core are interchangeable within this module.
type (
	// Agent is the Micro-Armed Bandit agent (Algorithm 1 around a Policy).
	Agent = core.Agent
	// Config configures an Agent.
	Config = core.Config
	// Policy is one MAB algorithm or exploration heuristic.
	Policy = core.Policy
	// Tables is the agent's learned state (rTable, nTable, nTotal).
	Tables = core.Tables
	// Controller is the minimal arm-selection protocol (Agent or FixedArm).
	Controller = core.Controller
	// FixedArm is a degenerate Controller that always picks one arm.
	FixedArm = core.FixedArm
	// EpsilonGreedy is the ε-Greedy algorithm (Table 3a).
	EpsilonGreedy = core.EpsilonGreedy
	// UCB is the Upper Confidence Bound algorithm (Table 3b).
	UCB = core.UCB
	// DUCB is the Discounted UCB algorithm (Table 3c) — the paper's choice.
	DUCB = core.DUCB
	// Single locks the best round-robin arm forever (§7.1 heuristic).
	Single = core.Single
	// Periodic alternates sweeps and exploitation (§7.1 heuristic).
	Periodic = core.Periodic
	// Selector is the hierarchical bandit: a high-level bandit selecting
	// among low-level controllers — the §9 extension over DUCB agents
	// with different hyperparameters, or heterogeneous agents.
	Selector = core.Selector
)

// Constructors, re-exported.
var (
	// New builds an Agent, validating the Config.
	New = core.New
	// MustNew is New that panics on error.
	MustNew = core.MustNew
	// NewEpsilonGreedy returns an ε-Greedy policy.
	NewEpsilonGreedy = core.NewEpsilonGreedy
	// NewUCB returns a UCB policy with exploration constant c.
	NewUCB = core.NewUCB
	// NewDUCB returns a DUCB policy with exploration constant c and
	// forgetting factor gamma.
	NewDUCB = core.NewDUCB
	// NewSingle returns the Single heuristic.
	NewSingle = core.NewSingle
	// NewPeriodic returns the Periodic heuristic.
	NewPeriodic = core.NewPeriodic
	// NewSelector builds a hierarchical bandit over labelled low-level
	// controllers.
	NewSelector = core.NewSelector
	// NewDUCBSweepMeta builds the §9 hyperparameter-sweep Selector.
	NewDUCBSweepMeta = core.NewDUCBSweepMeta
)

// Paper hyperparameters (Table 6), re-exported for convenience.
const (
	// PrefetchGamma is the DUCB forgetting factor for data prefetching.
	PrefetchGamma = core.PrefetchGamma
	// PrefetchC is the DUCB exploration constant for data prefetching.
	PrefetchC = core.PrefetchC
	// PrefetchArms is the prefetching arm count (Table 7).
	PrefetchArms = core.PrefetchArms
	// SMTGamma is the DUCB forgetting factor for SMT fetch PG selection.
	SMTGamma = core.SMTGamma
	// SMTC is the DUCB exploration constant for SMT fetch PG selection.
	SMTC = core.SMTC
	// SMTArms is the pruned SMT arm count (Table 1).
	SMTArms = core.SMTArms
	// RRRestartProb4Core is the §4.3 restart probability for 4-core runs.
	RRRestartProb4Core = core.RRRestartProb4Core
)

// NewPrefetchAgent returns the paper's prefetching Bandit: DUCB over the
// 11 Table 7 arms with the Table 6 hyperparameters and normalization.
func NewPrefetchAgent(seed uint64) *Agent {
	return MustNew(Config{
		Arms:      PrefetchArms,
		Policy:    NewDUCB(PrefetchC, PrefetchGamma),
		Normalize: true,
		Seed:      seed,
	})
}

// NewSMTAgent returns the paper's SMT fetch PG Bandit: DUCB over the 6
// Table 1 arms with the Table 6 hyperparameters and normalization.
func NewSMTAgent(seed uint64) *Agent {
	return MustNew(Config{
		Arms:      SMTArms,
		Policy:    NewDUCB(SMTC, SMTGamma),
		Normalize: true,
		Seed:      seed,
	})
}
