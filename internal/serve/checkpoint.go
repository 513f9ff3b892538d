package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"microbandit/internal/core"
	"microbandit/internal/fault"
)

// CheckpointVersion is the one checkpoint file schema version this build
// reads and writes: one JSON record per session.
const CheckpointVersion = 3

// Session kinds in a checkpoint record.
const (
	ckptAgent = "agent"
	ckptMeta  = "meta"
	ckptFixed = "fixed"
	ckptCtx   = "ctx"
)

// sessionCheckpoint is one serialized session: its spec, sequencing
// state, and the agent snapshot. The agent payload is kept raw so the
// envelope decodes without knowing the kind up front.
type sessionCheckpoint struct {
	ID       string          `json:"id"`
	Spec     Spec            `json:"spec"`
	Seq      uint64          `json:"seq"`
	Open     bool            `json:"open,omitempty"`
	Arm      int             `json:"arm,omitempty"`
	Kind     string          `json:"kind"`
	Agent    json.RawMessage `json:"agent,omitempty"`
	FixedArm int             `json:"fixed_arm,omitempty"`
}

// checkpointFile is the on-disk layout. Sessions are sorted by id, so a
// quiesced server checkpoints to identical bytes every time.
type checkpointFile struct {
	V        int                 `json:"v"`
	NextID   uint64              `json:"next_id"`
	Sessions []sessionCheckpoint `json:"sessions"`
}

// checkpointSession captures one session under its lock as a fully
// encoded record.
//
// Server-side fault wrappers (Spec.Faults) are intentionally not part of
// the snapshot: they are rebuilt from the spec on restore, so their
// private random streams restart. Fault-free sessions replay
// deterministically across a restore; chaos-injected sessions resume with
// a fresh fault stream.
func checkpointSession(s *Session) (sessionCheckpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck := sessionCheckpoint{
		ID: s.id, Spec: s.spec, Seq: s.seq, Open: s.open, Arm: s.arm,
	}
	var snap any
	var err error
	switch a := s.agent.(type) {
	case *core.Agent:
		ck.Kind = ckptAgent
		snap, err = a.Snapshot()
	case *core.Selector:
		ck.Kind = ckptMeta
		snap, err = a.Snapshot()
	case *core.ContextualAgent:
		ck.Kind = ckptCtx
		snap, err = a.Snapshot()
	case core.FixedArm:
		ck.Kind, ck.FixedArm = ckptFixed, int(a)
		return ck, nil
	default:
		return ck, fmt.Errorf("session %s: controller %T is not checkpointable", s.id, s.agent)
	}
	if err == nil {
		ck.Agent, err = json.Marshal(snap)
	}
	if err != nil {
		return ck, fmt.Errorf("session %s: %w", s.id, err)
	}
	return ck, nil
}

// restoreSession rebuilds a session from its checkpoint record and
// registers it in st. The agent resumes its exact snapshot state — agent
// sessions restore into their shard's slab arena, where freshly built
// ones are placed. The drive-path fault wrapper (when the spec arms one)
// is rebuilt fresh from the spec.
func (st *Store) restoreSession(ck sessionCheckpoint) error {
	if ck.ID == "" {
		return &CheckpointError{Reason: "session record without an id"}
	}
	spec := ck.Spec
	spec.normalize()
	if err := spec.Validate(); err != nil {
		return &CheckpointError{Reason: fmt.Sprintf("session %s: %v", ck.ID, err)}
	}
	if ck.Open && (ck.Arm < 0 || ck.Arm >= spec.Arms) {
		return &CheckpointError{Reason: fmt.Sprintf("session %s: open arm %d outside [0,%d)", ck.ID, ck.Arm, spec.Arms)}
	}
	set, err := fault.ParseSet(spec.Faults)
	if err != nil {
		return &CheckpointError{Reason: fmt.Sprintf("session %s: %v", ck.ID, err)}
	}

	sh := st.shardFor(ck.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[ck.ID]; ok {
		return &CheckpointError{Reason: fmt.Sprintf("duplicate session id %q", ck.ID)}
	}

	var (
		agent core.Controller
		slab  *core.Slab
		slot  int
	)
	switch ck.Kind {
	case ckptAgent:
		var snap core.AgentSnapshot
		if err = json.Unmarshal(ck.Agent, &snap); err != nil {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: decode agent: %v", ck.ID, err)}
		}
		// An agent session's policy kind is the registry name that built
		// it, as a contextual session's base is checked below.
		if snap.Policy.Kind != spec.Algo {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: agent policy %q does not serve spec algo %q", ck.ID, snap.Policy.Kind, spec.Algo)}
		}
		// The spec's arm count sizes the slab; a snapshot of another
		// shape fails the slab's own arm check.
		slab = lockedChunkFor(sh, spec.Arms)
		agent, slot, err = core.RestoreAgentIn(slab, &snap)
	case ckptMeta:
		agent, err = core.RestoreSelectorJSON(ck.Agent)
	case ckptCtx:
		var c *core.ContextualAgent
		if c, err = core.RestoreContextualAgentJSON(ck.Agent); err == nil {
			if base, _ := core.ContextualBase(spec.Algo); c.Algo() != base {
				return &CheckpointError{Reason: fmt.Sprintf("session %s: contextual base %q does not serve spec algo %q", ck.ID, c.Algo(), spec.Algo)}
			}
		}
		agent = c
	case ckptFixed:
		if ck.FixedArm < 0 || ck.FixedArm >= spec.Arms {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: fixed arm %d outside [0,%d)", ck.ID, ck.FixedArm, spec.Arms)}
		}
		agent = core.FixedArm(ck.FixedArm)
	default:
		return &CheckpointError{Reason: fmt.Sprintf("session %s: unknown kind %q", ck.ID, ck.Kind)}
	}
	if err != nil {
		return &CheckpointError{Reason: fmt.Sprintf("session %s: %v", ck.ID, err)}
	}
	// A learning agent's shape must agree with the session record: a
	// skewed record would otherwise restore an agent the protocol layer
	// believes has spec.Arms arms or a different open step, and the next
	// step or reward would corrupt or panic instead of erroring here.
	if a, ok := agent.(interface {
		Arms() int
		StepOpen() bool
	}); ok {
		if a.Arms() != spec.Arms {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: %s agent arms %d != spec arms %d", ck.ID, ck.Kind, a.Arms(), spec.Arms)}
		}
		if a.StepOpen() != ck.Open {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: %s agent in_step %v disagrees with session open %v", ck.ID, ck.Kind, a.StepOpen(), ck.Open)}
		}
	}

	sh.m[ck.ID] = &Session{
		id: ck.ID, spec: spec, agent: agent, drive: fault.Controller(agent, set, spec.Seed),
		slab: slab, slot: slot,
		seq: ck.Seq, open: ck.Open, arm: ck.Arm,
	}
	return nil
}

// Checkpoint serializes every live session as one record, sorted by id.
// Sessions are locked one at a time, so traffic on other sessions
// proceeds during a checkpoint.
func (st *Store) Checkpoint() ([]byte, error) {
	file := checkpointFile{V: CheckpointVersion, NextID: st.nextID.Load()}
	for _, id := range st.IDs() {
		s, ok := st.Get(id)
		if !ok {
			continue // deleted between IDs() and now
		}
		ck, err := checkpointSession(s)
		if err != nil {
			return nil, err
		}
		file.Sessions = append(file.Sessions, ck)
	}
	return json.Marshal(file)
}

// WriteCheckpoint atomically persists the store to path: the file is
// fully written and fsynced under a temporary name in the same
// directory, then renamed over the target, so a crash mid-write never
// leaves a truncated checkpoint behind.
func (st *Store) WriteCheckpoint(path string) error {
	data, err := st.Checkpoint()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// decodeError wraps a json decode failure in a CheckpointError carrying
// the byte offset the decoder stopped at, when the error kind has one.
// Truncated files surface as an unexpected-end-of-input at the cut;
// bit flips inside tokens surface at the damaged byte.
func decodeError(err error) *CheckpointError {
	ce := &CheckpointError{Reason: fmt.Sprintf("decode: %v", err)}
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		ce.Offset = syn.Offset
	case errors.As(err, &typ):
		ce.Offset = typ.Offset
	}
	return ce
}

// RestoreCheckpoint rebuilds a store from checkpoint bytes. Every error
// path returns a typed *CheckpointError (or core's typed snapshot
// errors wrapped in one) — decode failures name the byte offset of the
// damage, other versions name the one this build reads — and it never
// panics on hostile input. Duplicate session ids are errors.
func RestoreCheckpoint(data []byte, shards int) (*Store, error) {
	var file checkpointFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, decodeError(err)
	}
	if file.V != CheckpointVersion {
		return nil, &CheckpointError{Reason: fmt.Sprintf("version %d (this build reads version %d only)", file.V, CheckpointVersion)}
	}
	st := NewStore(shards)
	st.nextID.Store(file.NextID)
	for _, ck := range file.Sessions {
		if err := st.restoreSession(ck); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// LoadCheckpoint reads and restores a checkpoint file.
func LoadCheckpoint(path string, shards int) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return RestoreCheckpoint(data, shards)
}
