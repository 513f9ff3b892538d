package core

import (
	"encoding/json"
	"fmt"
)

// This file is the agent checkpoint codec: a versioned, JSON-stable
// snapshot of everything an Agent (or a Selector over Agents) needs to
// continue a decision loop after a process restart — learned tables, RNG
// state, pending forced arms, normalization constant, and policy mode
// state.
//
// The contract, enforced by tests, is twofold:
//
//   - Behavioral identity: Restore(Snapshot(a)) followed by n Step/Reward
//     pairs produces exactly the arm sequence a itself would have
//     produced.
//   - Byte identity: json.Marshal(Restore(s).Snapshot()) equals
//     json.Marshal(s) for every snapshot s produced by Snapshot, so
//     checkpoint files are stable across save/load cycles.
//
// Decoding is defensive: malformed JSON, truncated input, unknown
// versions, and internally inconsistent snapshots produce typed errors,
// never panics — snapshots cross process and trust boundaries (the serve
// subsystem accepts them from disk).

// SnapshotVersion is the current snapshot schema version. Restore accepts
// exactly this version; anything else is a *VersionError so an operator
// sees "old checkpoint" instead of silently corrupted state.
const SnapshotVersion = 1

// VersionError reports a snapshot whose schema version this build does
// not understand.
type VersionError struct {
	Got, Want int
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("core: snapshot version %d (this build reads version %d)", e.Got, e.Want)
}

// SnapshotError reports a structurally invalid snapshot (inconsistent
// table sizes, out-of-range arms, unknown policy kinds, ...).
type SnapshotError struct {
	Reason string
}

// Error implements error.
func (e *SnapshotError) Error() string { return "core: invalid snapshot: " + e.Reason }

func snapErrf(format string, args ...any) error {
	return &SnapshotError{Reason: fmt.Sprintf(format, args...)}
}

// Policy snapshot kinds, one per snapshotable Policy implementation.
const (
	policyEps      = "eps"
	policyUCB      = "ucb"
	policyDUCB     = "ducb"
	policySingle   = "single"
	policyPeriodic = "periodic"
)

// movingAvgState is the serialized form of a Periodic moving-average
// buffer. Fields carry no omitempty so the encoded bytes are a pure
// function of the state.
type movingAvgState struct {
	Buf  []float64 `json:"buf"`
	Next int       `json:"next"`
	N    int       `json:"n"`
	Sum  float64   `json:"sum"`
}

// PolicySnapshot captures one Policy: its kind, hyperparameters, and any
// internal mode state (Single's locked arm, Periodic's sweep position and
// moving-average buffers). Hyperparameter fields not used by a kind stay
// zero and are omitted.
type PolicySnapshot struct {
	Kind string `json:"kind"`

	// Hyperparameters (which apply depends on Kind).
	Epsilon float64 `json:"epsilon,omitempty"` // eps
	C       float64 `json:"c,omitempty"`       // ucb, ducb
	Gamma   float64 `json:"gamma,omitempty"`   // ducb

	// Periodic configuration.
	ExploitSteps int `json:"exploit_steps,omitempty"`
	Window       int `json:"window,omitempty"`

	// Mode state. Chosen is Single's locked arm (-1 while unchosen);
	// the Sweep* fields and Avg buffers are Periodic's position.
	Chosen      int              `json:"chosen,omitempty"`
	SweepIdx    int              `json:"sweep_idx,omitempty"`
	ExploitLeft int              `json:"exploit_left,omitempty"`
	ExploitArm  int              `json:"exploit_arm,omitempty"`
	SweepPrimed bool             `json:"sweep_primed,omitempty"`
	Avg         []movingAvgState `json:"avg,omitempty"`
}

// snapshotPolicy captures p, or returns a *SnapshotError for policy
// implementations the codec does not know (user-defined policies must be
// reconstructed by the caller).
func snapshotPolicy(p Policy) (PolicySnapshot, error) {
	switch p := p.(type) {
	case *EpsilonGreedy:
		return PolicySnapshot{Kind: policyEps, Epsilon: p.Epsilon}, nil
	case *UCB:
		return PolicySnapshot{Kind: policyUCB, C: p.C}, nil
	case *DUCB:
		return PolicySnapshot{Kind: policyDUCB, C: p.C, Gamma: p.Gamma}, nil
	case *Single:
		return PolicySnapshot{Kind: policySingle, Chosen: p.chosen}, nil
	case *Periodic:
		s := PolicySnapshot{
			Kind:         policyPeriodic,
			ExploitSteps: p.ExploitSteps,
			Window:       p.Window,
			SweepIdx:     p.sweepIdx,
			ExploitLeft:  p.exploitLeft,
			ExploitArm:   p.exploitArm,
			SweepPrimed:  p.sweepPrimed,
		}
		for i := range p.avg {
			m := &p.avg[i]
			s.Avg = append(s.Avg, movingAvgState{
				Buf:  append([]float64(nil), m.buf...),
				Next: m.next, N: m.n, Sum: m.sum,
			})
		}
		return s, nil
	default:
		return PolicySnapshot{}, snapErrf("policy %T is not snapshotable", p)
	}
}

// restorePolicy rebuilds the Policy captured in s, validating mode state
// against the agent's arm count.
func restorePolicy(s PolicySnapshot, arms int) (Policy, error) {
	switch s.Kind {
	case policyEps:
		return NewEpsilonGreedy(s.Epsilon), nil
	case policyUCB:
		return NewUCB(s.C), nil
	case policyDUCB:
		return NewDUCB(s.C, s.Gamma), nil
	case policySingle:
		if s.Chosen < -1 || s.Chosen >= arms {
			return nil, snapErrf("single chosen arm %d outside [-1,%d)", s.Chosen, arms)
		}
		p := NewSingle()
		p.chosen = s.Chosen
		return p, nil
	case policyPeriodic:
		p := NewPeriodic(s.ExploitSteps, s.Window)
		if s.SweepIdx < -1 || s.SweepIdx > arms {
			return nil, snapErrf("periodic sweep index %d outside [-1,%d]", s.SweepIdx, arms)
		}
		if s.ExploitArm < 0 || s.ExploitArm >= arms {
			return nil, snapErrf("periodic exploit arm %d outside [0,%d)", s.ExploitArm, arms)
		}
		if len(s.Avg) != 0 && len(s.Avg) != arms {
			return nil, snapErrf("periodic has %d moving averages, want 0 or %d", len(s.Avg), arms)
		}
		p.sweepIdx = s.SweepIdx
		p.exploitLeft = s.ExploitLeft
		p.exploitArm = s.ExploitArm
		p.sweepPrimed = s.SweepPrimed
		for _, m := range s.Avg {
			if len(m.Buf) != p.Window {
				return nil, snapErrf("periodic moving-average buffer has %d slots, want %d", len(m.Buf), p.Window)
			}
			if m.Next < 0 || m.Next >= len(m.Buf) || m.N < 0 || m.N > len(m.Buf) {
				return nil, snapErrf("periodic moving-average cursor out of range")
			}
			p.avg = append(p.avg, movingAvg{
				buf:  append([]float64(nil), m.Buf...),
				next: m.Next, n: m.N, sum: m.Sum,
			})
		}
		return p, nil
	default:
		return nil, snapErrf("unknown policy kind %q", s.Kind)
	}
}

// AgentSnapshot is the full serialized state of an Agent. Table and trace
// slices are deep copies; mutating the snapshot never aliases live agent
// state. The runtime wiring that cannot meaningfully cross a process
// boundary — the telemetry Recorder and a Coordinator's restart-permission
// hook — is deliberately absent: re-attach both after Restore.
type AgentSnapshot struct {
	V int `json:"v"`

	// Config.
	Arms          int            `json:"arms"`
	Policy        PolicySnapshot `json:"policy"`
	Normalize     bool           `json:"normalize,omitempty"`
	RRRestartProb float64        `json:"rr_restart_prob,omitempty"`
	Seed          uint64         `json:"seed"`
	RecordTrace   bool           `json:"record_trace,omitempty"`

	// Learned state.
	R      []float64 `json:"rtable"`
	N      []float64 `json:"ntable"`
	NTotal float64   `json:"ntotal"`

	// Loop state.
	Steps      int       `json:"steps"`
	CurrentArm int       `json:"current_arm"`
	InStep     bool      `json:"in_step,omitempty"`
	Forced     []int     `json:"forced,omitempty"`
	RAvg       float64   `json:"ravg,omitempty"`
	Normalized bool      `json:"normalized,omitempty"`
	Restarts   int       `json:"restarts,omitempty"`
	Trace      []int     `json:"trace,omitempty"`
	RNG        [4]uint64 `json:"rng"`
}

// Snapshot captures the agent's complete state. It fails only when the
// configured policy is not one of this package's implementations.
func (a *Agent) Snapshot() (*AgentSnapshot, error) {
	ps, err := snapshotPolicy(a.cfg.Policy)
	if err != nil {
		return nil, err
	}
	return &AgentSnapshot{
		V:             SnapshotVersion,
		Arms:          a.cfg.Arms,
		Policy:        ps,
		Normalize:     a.cfg.Normalize,
		RRRestartProb: a.cfg.RRRestartProb,
		Seed:          a.cfg.Seed,
		RecordTrace:   a.cfg.RecordTrace,
		R:             append([]float64(nil), a.tables.R...),
		N:             append([]float64(nil), a.tables.N...),
		NTotal:        a.tables.NTotal,
		Steps:         a.steps,
		CurrentArm:    a.currentArm,
		InStep:        a.inStep,
		Forced:        append([]int(nil), a.forced...),
		RAvg:          a.rAvg,
		Normalized:    a.normalized,
		Restarts:      a.restarts,
		Trace:         append([]int(nil), a.trace...),
		RNG:           a.rng.State(),
	}, nil
}

// validate checks the snapshot's internal consistency so Restore can
// install its fields without further bounds checks.
func (s *AgentSnapshot) validate() error {
	if s.V != SnapshotVersion {
		return &VersionError{Got: s.V, Want: SnapshotVersion}
	}
	if s.Arms < 1 {
		return snapErrf("agent needs at least 1 arm, got %d", s.Arms)
	}
	if len(s.R) != s.Arms || len(s.N) != s.Arms {
		return snapErrf("table sizes (%d rewards, %d counts) do not match %d arms",
			len(s.R), len(s.N), s.Arms)
	}
	if s.Steps < 0 || s.Restarts < 0 {
		return snapErrf("negative step or restart count")
	}
	if s.CurrentArm < 0 || s.CurrentArm >= s.Arms {
		return snapErrf("current arm %d outside [0,%d)", s.CurrentArm, s.Arms)
	}
	for _, f := range s.Forced {
		if f < 0 || f >= s.Arms {
			return snapErrf("forced arm %d outside [0,%d)", f, s.Arms)
		}
	}
	for _, t := range s.Trace {
		if t < 0 || t >= s.Arms {
			return snapErrf("traced arm %d outside [0,%d)", t, s.Arms)
		}
	}
	if s.RRRestartProb < 0 || s.RRRestartProb > 1 {
		return snapErrf("rr restart probability %v outside [0,1]", s.RRRestartProb)
	}
	return nil
}

// RestoreAgent rebuilds an Agent from a snapshot. The restored agent
// continues exactly where the snapshot was taken: the same future arm
// choices, the same RNG stream, the same pending protocol state (a
// snapshot taken between Step and Reward restores with the step still
// open). Telemetry recorders and coordinator hooks are not part of the
// snapshot; re-attach them afterwards.
func RestoreAgent(s *AgentSnapshot) (*Agent, error) {
	if s == nil {
		return nil, snapErrf("nil snapshot")
	}
	// Validate before building the agent: the arm count is outside
	// input, and only a consistent snapshot (tables of Arms entries)
	// bounds it.
	if err := s.validate(); err != nil {
		return nil, err
	}
	policy, err := restorePolicy(s.Policy, s.Arms)
	if err != nil {
		return nil, err
	}
	a, err := New(Config{
		Arms:          s.Arms,
		Policy:        policy,
		Normalize:     s.Normalize,
		RRRestartProb: s.RRRestartProb,
		Seed:          s.Seed,
		RecordTrace:   s.RecordTrace,
	})
	if err != nil {
		return nil, err
	}
	a.loadState(s)
	return a, nil
}

// loadState installs a validated snapshot's dynamic state over a freshly
// constructed agent with the matching config.
func (a *Agent) loadState(s *AgentSnapshot) {
	copy(a.tables.R, s.R)
	copy(a.tables.N, s.N)
	a.tables.NTotal = s.NTotal
	a.rng.SetState(s.RNG)
	a.steps = s.Steps
	a.currentArm = s.CurrentArm
	a.inStep = s.InStep
	a.forced = append(a.forced[:0], s.Forced...)
	a.rAvg = s.RAvg
	a.normalized = s.Normalized
	a.trace = append([]int(nil), s.Trace...)
	a.restarts = s.Restarts
}

// RestoreAgentJSON decodes a JSON-encoded AgentSnapshot and restores the
// agent. Malformed or truncated input returns a *SnapshotError wrapping
// the decode failure; it never panics.
func RestoreAgentJSON(data []byte) (*Agent, error) {
	var s AgentSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, snapErrf("decode: %v", err)
	}
	return RestoreAgent(&s)
}

// SelectorSnapshot is the full serialized state of a Selector whose
// candidates are all Agents: the high-level bandit, every candidate, the
// candidate labels, and the switch state.
type SelectorSnapshot struct {
	V       int              `json:"v"`
	High    *AgentSnapshot   `json:"high"`
	Lows    []*AgentSnapshot `json:"lows"`
	Labels  []string         `json:"labels"`
	Current int              `json:"current"`
	InStep  bool             `json:"in_step,omitempty"`
	Started bool             `json:"started,omitempty"`
}

// Snapshot captures the selector's complete state. It fails when a
// candidate is not an *Agent (other controllers have no snapshot form
// here) or an agent's policy is not snapshotable.
func (s *Selector) Snapshot() (*SelectorSnapshot, error) {
	high, err := s.high.Snapshot()
	if err != nil {
		return nil, err
	}
	lows := make([]*AgentSnapshot, len(s.low))
	for i, l := range s.low {
		a, ok := l.(*Agent)
		if !ok {
			return nil, snapErrf("selector candidate %d (%T) is not snapshotable", i, l)
		}
		if lows[i], err = a.Snapshot(); err != nil {
			return nil, err
		}
	}
	return &SelectorSnapshot{
		V:       SnapshotVersion,
		High:    high,
		Lows:    lows,
		Labels:  append([]string(nil), s.labels...),
		Current: s.current,
		InStep:  s.inStep,
		Started: s.started,
	}, nil
}

// RestoreSelector rebuilds a Selector from a snapshot, with the same
// continuation guarantees as RestoreAgent.
func RestoreSelector(s *SelectorSnapshot) (*Selector, error) {
	if s == nil {
		return nil, snapErrf("nil snapshot")
	}
	if s.V != SnapshotVersion {
		return nil, &VersionError{Got: s.V, Want: SnapshotVersion}
	}
	if s.High == nil {
		return nil, snapErrf("selector snapshot has no high-level agent")
	}
	if len(s.Lows) < 2 {
		return nil, snapErrf("selector snapshot has %d low-level agents, need at least 2", len(s.Lows))
	}
	if len(s.Labels) != len(s.Lows) {
		return nil, snapErrf("selector snapshot has %d labels for %d low-level agents", len(s.Labels), len(s.Lows))
	}
	if s.Current < 0 || s.Current >= len(s.Lows) {
		return nil, snapErrf("selector current level %d outside [0,%d)", s.Current, len(s.Lows))
	}
	high, err := RestoreAgent(s.High)
	if err != nil {
		return nil, fmt.Errorf("high level: %w", err)
	}
	if high.Arms() != len(s.Lows) {
		return nil, snapErrf("high level has %d arms, want %d low-level agents", high.Arms(), len(s.Lows))
	}
	lows := make([]Controller, len(s.Lows))
	arms := -1
	for i, ls := range s.Lows {
		a, err := RestoreAgent(ls)
		if err != nil {
			return nil, fmt.Errorf("low level %d: %w", i, err)
		}
		if arms == -1 {
			arms = a.Arms()
		} else if a.Arms() != arms {
			return nil, snapErrf("low-level agent %d has %d arms, want %d", i, a.Arms(), arms)
		}
		lows[i] = a
	}
	return &Selector{
		high:    high,
		low:     lows,
		labels:  append([]string(nil), s.Labels...),
		arms:    arms,
		current: s.Current,
		inStep:  s.InStep,
		started: s.Started,
	}, nil
}

// RestoreSelectorJSON decodes a JSON-encoded SelectorSnapshot and
// restores the selector, with RestoreAgentJSON's error contract.
func RestoreSelectorJSON(data []byte) (*Selector, error) {
	var s SelectorSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, snapErrf("decode: %v", err)
	}
	return RestoreSelector(&s)
}
