// Package scenario is the decision-scenario subsystem: the paper's core
// pitch is one tiny bandit reused across many microarchitecture decision
// problems, and this package is where those problems live. It lifts the
// prefetcher-only prefetch.Tunable contract into a generic Tunable
// (name/arms/apply plus a per-scenario reward probe) and registers one
// Scenario per decision problem:
//
//   - prefetch:    the paper's Table 7 prefetcher-ensemble selection
//   - dramsched:   DRAM scheduling policy (FCFS/FR-FCFS, open/close page)
//   - cacheins:    LLC insertion policy (LRU vs LIP/BIP insertion depth)
//   - pfdegree:    prefetch-degree throttling under bandwidth collapse
//   - agentselect: the meta-bandit selecting among whole agent configs
//
// A Scenario knows how to wire itself into a simulated core (Wire), which
// workloads exercise its decision meaningfully (Apps), which faults are
// part of its problem statement (Faults), and which comparison columns an
// experiment should run (Columns — index 0 is always the learning
// bandit, the rest are the static arms it must compete with).
package scenario

import (
	"fmt"
	"strings"

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
)

// Tunable is the generic arm-controlled unit: what prefetch.Tunable is
// to prefetchers, for any microarchitecture decision problem. It
// satisfies cpu.Actuator (and fault.Applier) structurally, so runners
// and fault wrappers drive it exactly like a tunable prefetcher.
type Tunable interface {
	// Name identifies the decision problem the arms control.
	Name() string
	// NumArms returns the number of selectable arms.
	NumArms() int
	// Apply switches to the given arm; panics if out of range. Must be
	// idempotent and allocation-free in steady state (it runs on the
	// simulator hot path, after every bandit step).
	Apply(arm int)
}

// Instance is one wired-up occurrence of a scenario inside a simulated
// core: the tunable the controller drives, the scenario's reward probe
// (nil means the runner's default step-IPC reward), and the L2
// prefetcher the run uses (nil means none).
type Instance struct {
	Tunable Tunable
	Probe   core.RewardProbe
	Pf      prefetch.Prefetcher
}

// Column is one comparison column of a scenario experiment. New builds
// the column's controller for a run; seed derivation is the caller's
// job so determinism stays with the experiment engine.
type Column struct {
	Name string
	New  func(seed uint64) core.Controller
}

// Scenario is one decision problem the bandit can be dropped into.
type Scenario interface {
	// Name is the registry key ("dramsched", ...).
	Name() string
	// Desc is a one-line description for reports.
	Desc() string
	// ArmLabels returns the decision space's arm names in arm order.
	// Cheap: must not construct simulation state.
	ArmLabels() []string
	// Apps lists the catalog workloads the scenario's experiment runs
	// (chosen so the decision matters; the harness caps via MaxApps).
	Apps() []string
	// Faults returns the fault set inherent to the scenario's problem
	// statement (fault.ParseSet syntax; "" = none). pfdegree throttles
	// *because* bandwidth collapses, so the fault is part of the
	// scenario, not an external perturbation.
	Faults() string
	// Columns returns the experiment's comparison columns; index 0 is
	// the learning bandit, the rest the static alternatives.
	Columns() []Column
	// Wire instantiates the scenario inside a core: installs whatever
	// hooks the decision needs and returns the tunable/probe/prefetcher
	// bundle the runner drives.
	Wire(c *cpu.Core, h *mem.Hierarchy, seed uint64) Instance
}

// registry lists the scenarios in display order.
var registry = []Scenario{
	prefetchScenario{},
	dramschedScenario{},
	cacheinsScenario{},
	pfdegreeScenario{},
	agentselectScenario{},
}

// Names returns the registered scenario names in display order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name()
	}
	return out
}

// All returns the registered scenarios in display order.
func All() []Scenario {
	out := make([]Scenario, len(registry))
	copy(out, registry)
	return out
}

// NewByName returns the named scenario. Unknown names return an error
// listing the valid ones (the CLIs print it and exit 2).
func NewByName(name string) (Scenario, error) {
	for _, s := range registry {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown scenario %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// banditColumn builds the learning column: a DUCB agent with the
// paper's prefetching hyperparameters (Table 6) over the scenario's arm
// count — the same one-size configuration every scenario reuses, which
// is the reusability claim under test.
func banditColumn(arms int) Column {
	return Column{Name: "bandit", New: func(seed uint64) core.Controller {
		cfg, err := core.AlgoConfig("ducb", arms, seed, false)
		if err != nil {
			panic(fmt.Sprintf("scenario: bandit column: %v", err))
		}
		return core.MustNew(cfg)
	}}
}

// staticColumns builds one FixedArm column per arm label.
func staticColumns(labels []string) []Column {
	out := make([]Column, len(labels))
	for i, l := range labels {
		arm := i
		out[i] = Column{Name: "static:" + l, New: func(uint64) core.Controller {
			return core.FixedArm(arm)
		}}
	}
	return out
}

// banditAndStatics is the standard column set: the bandit, then every
// static arm.
func banditAndStatics(labels []string) []Column {
	cols := make([]Column, 0, len(labels)+1)
	cols = append(cols, banditColumn(len(labels)))
	cols = append(cols, staticColumns(labels)...)
	return cols
}
