package serve

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"microbandit/internal/core"
	"microbandit/internal/fault"
	"microbandit/internal/scenario"
)

// MaxArms bounds the arm count a session spec may request. Specs cross a
// trust boundary (HTTP, checkpoint files); an unbounded arm count would
// let one request allocate arbitrary memory.
const MaxArms = 4096

// MaxMetaLevels bounds the hierarchical stack depth for the same reason.
const MaxMetaLevels = 64

// Spec describes the decision problem one session serves: the arm count,
// the bandit algorithm driving it, and optional server-side fault
// injection for chaos testing. It is the wire form of a core.Config (or a
// §9 meta-agent stack) and round-trips through session checkpoints.
type Spec struct {
	// Algo is a core.ParseAlgo name ("ducb", "ucb", "eps", "single",
	// "periodic", "static:N"). Empty defaults to "ducb".
	Algo string `json:"algo,omitempty"`
	// Arms is the number of actions, in [1, MaxArms].
	Arms int `json:"arms"`
	// Seed seeds the agent's private RNG (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// MetaPairs, with two or more (c, gamma) entries, builds the §9
	// hierarchical DUCB sweep stack instead of a single agent; Algo is
	// then ignored.
	MetaPairs [][2]float64 `json:"meta_pairs,omitempty"`
	// Faults arms server-side reward-channel fault injection, in
	// fault.ParseSet form. Only the reward-channel kinds (noise,
	// quantize, delay, panic) apply to a served session; the
	// substrate kinds are rejected because a session has no simulated
	// memory system or workload to fault.
	Faults string `json:"faults,omitempty"`
	// MaxContexts bounds the live-context count of a contextual session
	// (Algo "ctx-ducb"); 0 means the core default. Rejected for
	// non-contextual algorithms.
	MaxContexts int `json:"max_contexts,omitempty"`
	// Scenario names the decision scenario this session serves arms for
	// (scenario.Names: "prefetch", "dramsched", ...). Purely descriptive
	// plus one convenience: with Arms 0 the scenario's arm count is
	// filled in, and a non-zero Arms that disagrees with the scenario is
	// rejected — a client driving real hardware arms cannot silently
	// bind to the wrong decision space. Unknown names are rejected with
	// the valid list.
	Scenario string `json:"scenario,omitempty"`
}

// rewardChannelKinds are the fault kinds a served session can realize.
var rewardChannelKinds = map[fault.Kind]bool{
	fault.Noise: true, fault.Quantize: true, fault.Delay: true, fault.Panic: true,
}

// normalize applies spec defaults in place.
func (sp *Spec) normalize() {
	if sp.Algo == "" && len(sp.MetaPairs) == 0 {
		sp.Algo = "ducb"
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Arms == 0 && sp.Scenario != "" {
		if sc, err := scenario.NewByName(sp.Scenario); err == nil {
			sp.Arms = len(sc.ArmLabels())
		}
		// Unknown names leave Arms at 0; Validate reports the name error
		// (more useful than the arms-range error normalize would cause).
	}
}

// Validate checks the spec without building anything.
func (sp Spec) Validate() error {
	if sp.Scenario != "" {
		sc, err := scenario.NewByName(sp.Scenario)
		if err != nil {
			return err
		}
		if want := len(sc.ArmLabels()); sp.Arms != 0 && sp.Arms != want {
			return fmt.Errorf("arms %d does not match scenario %q (%d arms)", sp.Arms, sp.Scenario, want)
		}
	}
	if sp.Arms < 1 || sp.Arms > MaxArms {
		return fmt.Errorf("arms %d outside [1, %d]", sp.Arms, MaxArms)
	}
	if n := len(sp.MetaPairs); n == 1 || n > MaxMetaLevels {
		return fmt.Errorf("meta_pairs needs 2..%d entries, got %d", MaxMetaLevels, n)
	}
	_, contextual := core.ContextualBase(sp.Algo)
	if sp.MaxContexts != 0 {
		if !contextual {
			return fmt.Errorf("max_contexts applies only to the contextual algorithm ctx-ducb, not %q", sp.Algo)
		}
		if sp.MaxContexts < 0 || sp.MaxContexts > core.MaxMaxContexts {
			return fmt.Errorf("max_contexts %d outside [1, %d]", sp.MaxContexts, core.MaxMaxContexts)
		}
	}
	if contextual && len(sp.MetaPairs) != 0 {
		return fmt.Errorf("meta_pairs and a contextual algorithm cannot be combined")
	}
	// The algorithm name, checked without building an agent; a meta
	// stack ignores it.
	if len(sp.MetaPairs) == 0 && !contextual {
		var err error
		if strings.HasPrefix(sp.Algo, "static:") {
			_, err = core.ParseAlgo(sp.Algo, sp.Arms, sp.Seed, false)
		} else {
			_, err = core.AlgoConfig(sp.Algo, sp.Arms, sp.Seed, false)
		}
		if err != nil {
			return err
		}
	}
	set, err := fault.ParseSet(sp.Faults)
	if err != nil {
		return err
	}
	for _, s := range set {
		if !rewardChannelKinds[s.Kind] {
			return fmt.Errorf("fault kind %q does not apply to a served session (valid: noise, quantize, delay, panic)", s.Kind)
		}
	}
	return nil
}

// buildController constructs the controller of a validated spec
// (Store.Create validates before it draws an id). The first return is
// the snapshotable agent (a *core.Agent, *core.Selector,
// *core.ContextualAgent, or core.FixedArm); the second is the controller
// the request path drives, which wraps the agent with the spec's fault
// set when one is armed.
//
// alloc places plain agents: the store passes its shard-slab allocator
// so agent sessions land in contiguous struct-of-arrays storage. Meta
// stacks and fixed arms are not slab material and are built in place.
func buildController(sp Spec, alloc func(core.Config) (*core.Agent, error)) (agent, drive core.Controller, err error) {
	base, contextual := core.ContextualBase(sp.Algo)
	switch {
	case len(sp.MetaPairs) >= 2:
		m, err := core.NewDUCBSweepMeta(sp.Arms, sp.MetaPairs, true, sp.Seed)
		if err != nil {
			return nil, nil, err
		}
		agent = m
	case strings.HasPrefix(sp.Algo, "static:"):
		c, err := core.ParseAlgo(sp.Algo, sp.Arms, sp.Seed, false)
		if err != nil {
			return nil, nil, err
		}
		agent = c
	case contextual:
		c, err := core.NewContextualAgent(core.ContextualConfig{
			Arms: sp.Arms, Algo: base, Seed: sp.Seed, MaxContexts: sp.MaxContexts,
		})
		if err != nil {
			return nil, nil, err
		}
		agent = c
	default:
		cfg, err := core.AlgoConfig(sp.Algo, sp.Arms, sp.Seed, false)
		if err != nil {
			return nil, nil, err
		}
		a, err := alloc(cfg)
		if err != nil {
			return nil, nil, err
		}
		agent = a
	}
	set, err := fault.ParseSet(sp.Faults)
	if err != nil {
		return nil, nil, err
	}
	return agent, fault.Controller(agent, set, sp.Seed), nil
}

// Session is one live decision loop: an agent plus the sequencing state
// that makes the step/reward protocol safe over a lossy, retrying
// transport. All access goes through its mutex; the store's shard locks
// only guard the id → session map.
//
// The sequence protocol: every completed decision increments Seq, and a
// step response carries the Seq of the decision it opens. A reward post
// must quote that Seq; duplicates (the step already rewarded) and
// out-of-order posts (a stale or future Seq) are rejected with typed
// conflict errors, deterministically — the agent never sees them.
type Session struct {
	mu sync.Mutex

	id    string
	spec  Spec
	agent core.Controller // snapshotable: *core.Agent, *core.Selector, *core.ContextualAgent, or core.FixedArm
	drive core.Controller // agent, behind the spec's fault wrapper when armed

	// Slab placement. Plain-agent sessions live in their shard's
	// struct-of-arrays arena at slab/slot, which Store.Delete frees. Meta,
	// contextual and fixed-arm sessions have a nil slab.
	slab *core.Slab
	slot int

	// deleted is set (under mu) by Store.Delete after the session left
	// the id map and before its slab slot is freed. An operation that
	// resolved the session earlier must re-check it under mu: past this
	// flag, the agent pointer may alias the slot's next tenant.
	deleted bool

	seq  uint64 // completed decisions
	open bool   // step issued, reward pending
	arm  int    // arm of the open step
}

// ID returns the session id.
func (s *Session) ID() string { return s.id }

// Spec returns the session's spec.
func (s *Session) Spec() Spec { return s.spec }

// SessionInfo is the read-model of a session returned by the API.
type SessionInfo struct {
	ID       string `json:"id"`
	Spec     Spec   `json:"spec"`
	Seq      uint64 `json:"seq"`
	Open     bool   `json:"open"`
	Arm      int    `json:"arm"`
	BestArm  int    `json:"best_arm"`
	Restarts int    `json:"restarts,omitempty"`
	Contexts int    `json:"contexts,omitempty"`
}

// Info returns a consistent snapshot of the session's externally visible
// state. The error is non-nil only when the lookup raced a DELETE.
func (s *Session) Info() (SessionInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deleted {
		return SessionInfo{}, errSessionDeleted(s.id)
	}
	info := SessionInfo{
		ID: s.id, Spec: s.spec, Seq: s.seq, Open: s.open, Arm: s.arm,
	}
	switch a := s.agent.(type) {
	case *core.Agent:
		info.BestArm = a.BestArm()
		info.Restarts = a.Restarts()
	case *core.Selector:
		info.BestArm = a.BestArm()
	case *core.ContextualAgent:
		info.BestArm = a.BestArm()
		info.Contexts = a.Contexts()
	case core.FixedArm:
		info.BestArm = int(a)
	}
	return info, nil
}

// Step opens the next decision: it asks the agent for an arm and returns
// it with the decision's sequence number. A second Step before the open
// decision's reward is a protocol conflict, not an agent panic.
func (s *Session) Step() (seq uint64, arm int, err error) {
	return s.StepWithContext(nil)
}

// SignatureFromVector maps a wire context vector to a core.Signature. The
// vector is [phase, mpki, bw_util]: the phase must be a non-negative
// integer (it is used verbatim, modulo the 16-bit field width); the MPKI
// and bandwidth-utilization values are bucketed by the core banding
// functions. Wrong lengths and non-finite values are errors, so a typo'd
// client sees a 400 instead of silently landing in a garbage context.
func SignatureFromVector(v []float64) (core.Signature, error) {
	if len(v) != 3 {
		return 0, fmt.Errorf("context needs exactly 3 values [phase, mpki, bw_util], got %d", len(v))
	}
	for i, f := range v {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, fmt.Errorf("context[%d] is not finite", i)
		}
	}
	phase := int(v[0])
	if float64(phase) != v[0] || phase < 0 {
		return 0, fmt.Errorf("context phase %v is not a non-negative integer", v[0])
	}
	return core.SignatureOf(phase, v[1], v[2]), nil
}

// StepWithContext is Step with an optional context vector: a non-nil
// ctxVec selects the signature context the decision runs in. Sending a
// context to a non-contextual session is a bad request; omitting it on a
// contextual session keeps the most recently selected context (the zero
// signature before any context has been sent).
func (s *Session) StepWithContext(ctxVec []float64) (seq uint64, arm int, err error) {
	var sig core.Signature
	if ctxVec != nil {
		if sig, err = SignatureFromVector(ctxVec); err != nil {
			return 0, 0, &ProtocolError{Code: CodeBadRequest, Msg: err.Error()}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deleted {
		return 0, 0, errSessionDeleted(s.id)
	}
	// A context on a non-contextual session is rejected before the
	// step-open check: the request is malformed no matter what protocol
	// state the session is in.
	var cs core.ContextSetter
	if ctxVec != nil {
		var ok bool
		if cs, ok = s.agent.(core.ContextSetter); !ok {
			return 0, 0, &ProtocolError{
				Code: CodeBadRequest,
				Msg:  fmt.Sprintf("session algorithm %q does not accept a context", s.spec.Algo),
			}
		}
	}
	if s.open {
		return 0, 0, &ProtocolError{
			Code: CodeStepOpen,
			Msg:  fmt.Sprintf("decision %d is awaiting its reward", s.seq),
		}
	}
	if cs != nil {
		cs.SetContext(sig)
	}
	arm = s.drive.Step()
	s.open, s.arm = true, arm
	return s.seq, arm, nil
}

// Reward closes the decision identified by seq with the observed reward.
// Duplicate and out-of-order posts are rejected deterministically: the
// reward reaches the agent exactly once, in order, or not at all.
func (s *Session) Reward(seq uint64, reward float64) (steps uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deleted {
		return 0, errSessionDeleted(s.id)
	}
	if !s.open {
		return 0, &ProtocolError{
			Code: CodeNoOpenStep,
			Msg:  fmt.Sprintf("no open decision (next step will be %d); duplicate reward?", s.seq),
		}
	}
	if seq != s.seq {
		return 0, &ProtocolError{
			Code: CodeSeqMismatch,
			Msg:  fmt.Sprintf("reward for decision %d, but decision %d is open", seq, s.seq),
		}
	}
	s.drive.Reward(reward)
	s.open = false
	s.seq++
	return s.seq, nil
}
