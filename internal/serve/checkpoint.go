package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"microbandit/internal/core"
	"microbandit/internal/fault"
)

// CheckpointVersion is the one checkpoint file schema version this build
// reads and writes. Version 2 stores same-algorithm agent sessions as
// slab records (parallel arrays) and every other session as its own
// JSON object.
const CheckpointVersion = 2

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

// slabCheckpoint stores every (algo, arms)-alike agent session in column
// form: entry i of each array is one session, and the learned tables
// concatenate into two flat arrays (row i = R[i*arms:(i+1)*arms]). A
// 10k-session checkpoint is two long float arrays instead of 10k JSON
// objects repeating the same policy block. Only sessions whose policy is
// a pure function of the spec qualify (ducb/ucb/eps: stateless policies,
// paper-registry hyperparameters, round-robin queue in tail-invariant
// form); anything else falls back to a sessionCheckpoint record.
type slabCheckpoint struct {
	Algo string `json:"algo"`
	Arms int    `json:"arms"`

	IDs      []string `json:"ids"`
	Specs    []Spec   `json:"specs"`
	Seqs     []uint64 `json:"seqs"`
	Opens    []bool   `json:"opens"`
	OpenArms []int    `json:"open_arms"`

	R           []float64   `json:"rtable"`
	N           []float64   `json:"ntable"`
	NTotals     []float64   `json:"ntotals"`
	Steps       []int       `json:"steps"`
	CurrentArms []int       `json:"current_arms"`
	InSteps     []bool      `json:"in_steps"`
	ForcedLens  []int       `json:"forced_lens"` // round-robin tail length; arm j of k is arms-k+j
	RAvgs       []float64   `json:"ravgs"`
	Normalizeds []bool      `json:"normalizeds"`
	Restarts    []int       `json:"restarts"`
	RNGs        [][4]uint64 `json:"rngs"`
}

// checkpointFile is the on-disk layout. Sessions and slab groups are
// sorted (by id and by group key), so a quiesced server checkpoints to
// identical bytes every time.
type checkpointFile struct {
	V        int                 `json:"v"`
	NextID   uint64              `json:"next_id"`
	Sessions []sessionCheckpoint `json:"sessions"`
	Slabs    []slabCheckpoint    `json:"slabs,omitempty"`
}

// slabAlgos are the algorithm names whose policies carry no mode state,
// making their sessions eligible for slab records.
var slabAlgos = map[string]bool{"ducb": true, "ucb": true, "eps": true}

// statelessPolicyEq reports whether two policy snapshots describe the
// same stateless policy (no Periodic/Single mode state on either side).
func statelessPolicyEq(a, b core.PolicySnapshot) bool {
	return a.Kind == b.Kind && a.Epsilon == b.Epsilon && a.C == b.C &&
		a.Gamma == b.Gamma && a.Sigma == b.Sigma && a.Arm == b.Arm &&
		a.Chosen == b.Chosen && a.SweepIdx == b.SweepIdx &&
		a.ExploitLeft == b.ExploitLeft && a.ExploitArm == b.ExploitArm &&
		!a.SweepPrimed && !b.SweepPrimed && len(a.Avg) == 0 && len(b.Avg) == 0
}

// slabRecordable reports whether an agent session can be stored as a
// slab entry: every config field must be re-derivable from the spec
// through the algorithm registry, and the forced queue must be the
// round-robin tail the ForcedLens encoding assumes. The checks are
// belt-and-braces — sessions built by this package always qualify — but
// a session restored from a hand-edited per-session record might not,
// and falling back to a full record is always correct.
func slabRecordable(spec Spec, snap *core.AgentSnapshot) bool {
	if len(spec.MetaPairs) != 0 || !slabAlgos[spec.Algo] {
		return false
	}
	want, err := core.AlgoPolicySnapshot(spec.Algo)
	if err != nil || !statelessPolicyEq(want, snap.Policy) {
		return false
	}
	if !snap.Normalize || snap.RRRestartProb != 0 || snap.RecordTrace || snap.HardwarePrecision {
		return false
	}
	if snap.Seed != spec.Seed || snap.Arms != spec.Arms || len(snap.Trace) != 0 {
		return false
	}
	k := len(snap.Forced)
	if k > snap.Arms {
		return false
	}
	for j, f := range snap.Forced {
		if f != snap.Arms-k+j {
			return false
		}
	}
	return true
}

// validate checks a decoded slab group's structural consistency.
func (g *slabCheckpoint) validate() error {
	if g.Arms < 1 || g.Arms > MaxArms {
		return fmt.Errorf("slab group %q: arms %d outside [1, %d]", g.Algo, g.Arms, MaxArms)
	}
	n := len(g.IDs)
	// Columns are checked in a fixed order so a multi-column corruption
	// always reports the same (first) mismatching column.
	cols := []struct {
		name string
		len  int
	}{
		{"specs", len(g.Specs)}, {"seqs", len(g.Seqs)}, {"opens", len(g.Opens)},
		{"open_arms", len(g.OpenArms)}, {"ntotals", len(g.NTotals)},
		{"steps", len(g.Steps)}, {"current_arms", len(g.CurrentArms)},
		{"in_steps", len(g.InSteps)}, {"forced_lens", len(g.ForcedLens)},
		{"ravgs", len(g.RAvgs)}, {"normalizeds", len(g.Normalizeds)},
		{"restarts", len(g.Restarts)}, {"rngs", len(g.RNGs)},
	}
	for _, c := range cols {
		if c.len != n {
			return fmt.Errorf("slab group %q/%d: %d ids but %d %s", g.Algo, g.Arms, n, c.len, c.name)
		}
	}
	if len(g.R) != n*g.Arms || len(g.N) != n*g.Arms {
		return fmt.Errorf("slab group %q/%d: tables hold %d/%d values, want %d", g.Algo, g.Arms, len(g.R), len(g.N), n*g.Arms)
	}
	return nil
}

// checkpointSession captures one session under its lock. For agent
// sessions the snapshot is returned unmarshaled so the caller can route
// it into a slab group; for every other kind ck arrives fully encoded.
//
// Server-side fault wrappers (Spec.Faults) are intentionally not part of
// the snapshot: they are rebuilt from the spec on restore, so their
// private random streams restart. Fault-free sessions replay
// deterministically across a restore; chaos-injected sessions resume with
// a fresh fault stream.
func checkpointSession(s *Session) (ck sessionCheckpoint, agentSnap *core.AgentSnapshot, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck = sessionCheckpoint{
		ID: s.id, Spec: s.spec, Seq: s.seq, Open: s.open, Arm: s.arm,
	}
	switch a := s.agent.(type) {
	case *core.Agent:
		snap, err := a.Snapshot()
		if err != nil {
			return ck, nil, fmt.Errorf("session %s: %w", s.id, err)
		}
		ck.Kind = ckptAgent
		return ck, snap, nil
	case *core.MetaAgent:
		snap, err := a.Snapshot()
		if err != nil {
			return ck, nil, fmt.Errorf("session %s: %w", s.id, err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			return ck, nil, fmt.Errorf("session %s: %w", s.id, err)
		}
		ck.Kind, ck.Agent = ckptMeta, data
	case *core.ContextualAgent:
		snap, err := a.Snapshot()
		if err != nil {
			return ck, nil, fmt.Errorf("session %s: %w", s.id, err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			return ck, nil, fmt.Errorf("session %s: %w", s.id, err)
		}
		ck.Kind, ck.Agent = ckptCtx, data
	case core.FixedArm:
		ck.Kind, ck.FixedArm = ckptFixed, int(a)
	default:
		return ck, nil, fmt.Errorf("session %s: controller %T is not checkpointable", s.id, s.agent)
	}
	return ck, nil, nil
}

// slabGroupKey orders slab groups deterministically in the file.
func slabGroupKey(algo string, arms int) string {
	return fmt.Sprintf("%s/%06d", algo, arms)
}

// appendSlabEntry adds one captured agent session to its slab group.
func appendSlabEntry(g *slabCheckpoint, ck *sessionCheckpoint, snap *core.AgentSnapshot) {
	g.IDs = append(g.IDs, ck.ID)
	g.Specs = append(g.Specs, ck.Spec)
	g.Seqs = append(g.Seqs, ck.Seq)
	g.Opens = append(g.Opens, ck.Open)
	g.OpenArms = append(g.OpenArms, ck.Arm)
	g.R = append(g.R, snap.R...)
	g.N = append(g.N, snap.N...)
	g.NTotals = append(g.NTotals, snap.NTotal)
	g.Steps = append(g.Steps, snap.Steps)
	g.CurrentArms = append(g.CurrentArms, snap.CurrentArm)
	g.InSteps = append(g.InSteps, snap.InStep)
	g.ForcedLens = append(g.ForcedLens, len(snap.Forced))
	g.RAvgs = append(g.RAvgs, snap.RAvg)
	g.Normalizeds = append(g.Normalizeds, snap.Normalized)
	g.Restarts = append(g.Restarts, snap.Restarts)
	g.RNGs = append(g.RNGs, snap.RNG)
}

// restoreSession rebuilds a session from its checkpoint record and
// registers it in st. The agent resumes its exact snapshot state — agent
// sessions restore into their shard's slab arena, so a restored server
// is as batch-kernel-eligible as a freshly built one. The drive-path
// fault wrapper (when the spec arms one) is rebuilt fresh from the spec.
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

	var agent core.Controller
	var chunk *arenaChunk
	var slot int
	switch ck.Kind {
	case ckptAgent:
		var snap core.AgentSnapshot
		if err := json.Unmarshal(ck.Agent, &snap); err != nil {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: decode agent: %v", ck.ID, err)}
		}
		if snap.Arms < 1 || snap.Arms > MaxArms {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: agent arms %d outside [1, %d]", ck.ID, snap.Arms, MaxArms)}
		}
		// The agent's shape must agree with the spec the session claims:
		// a skewed record would otherwise restore an agent the protocol
		// layer believes has spec.Arms arms, and the next step or reward
		// would corrupt or panic instead of erroring here.
		if snap.Arms != spec.Arms {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: agent arms %d != spec arms %d", ck.ID, snap.Arms, spec.Arms)}
		}
		if snap.InStep != ck.Open {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: agent in_step %v disagrees with session open %v", ck.ID, snap.InStep, ck.Open)}
		}
		chunk = st.lockedChunkFor(sh, snap.Arms)
		a, sl, err := core.RestoreAgentIn(chunk.slab, &snap)
		if err != nil {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: %v", ck.ID, err)}
		}
		agent, slot = a, sl
	case ckptMeta:
		m, err := core.RestoreMetaAgentJSON(ck.Agent)
		if err != nil {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: %v", ck.ID, err)}
		}
		if m.Arms() != spec.Arms {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: meta agent arms %d != spec arms %d", ck.ID, m.Arms(), spec.Arms)}
		}
		if m.StepOpen() != ck.Open {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: meta agent in_step %v disagrees with session open %v", ck.ID, m.StepOpen(), ck.Open)}
		}
		agent = m
	case ckptCtx:
		c, err := core.RestoreContextualAgentJSON(ck.Agent)
		if err != nil {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: %v", ck.ID, err)}
		}
		base, ok := core.ContextualBase(spec.Algo)
		if !ok {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: spec algo %q is not contextual", ck.ID, spec.Algo)}
		}
		snap := struct {
			Arms int    `json:"arms"`
			Algo string `json:"algo"`
		}{}
		if err := json.Unmarshal(ck.Agent, &snap); err != nil {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: decode contextual agent: %v", ck.ID, err)}
		}
		if snap.Arms != spec.Arms {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: contextual agent arms %d != spec arms %d", ck.ID, snap.Arms, spec.Arms)}
		}
		if snap.Algo != base {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: contextual base %q != spec algo %q (base %q)", ck.ID, snap.Algo, spec.Algo, base)}
		}
		if c.StepOpen() != ck.Open {
			return &CheckpointError{Reason: fmt.Sprintf("session %s: contextual agent in_step %v disagrees with session open %v", ck.ID, c.StepOpen(), ck.Open)}
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

	drive := fault.Controller(agent, set, spec.Seed)
	s := &Session{
		id: ck.ID, spec: spec, agent: agent, drive: drive,
		seq: ck.Seq, open: ck.Open, arm: ck.Arm,
	}
	if chunk != nil {
		s.slab, s.slot, s.slabOrd = chunk.slab, slot, chunk.ord
		s.kernelOK = drive == agent
	}
	sh.m[ck.ID] = s
	return nil
}

// Checkpoint serializes every live session: per-session records sorted
// by id, then slab groups sorted by (algo, arms). Sessions are locked one
// at a time, so traffic on other sessions proceeds during a checkpoint.
// Agent sessions that pass slabRecordable land in column slab groups;
// everything else keeps the per-session record format.
func (st *Store) Checkpoint() ([]byte, error) {
	file := checkpointFile{V: CheckpointVersion, NextID: st.nextID.Load()}
	groups := make(map[string]*slabCheckpoint)
	for _, id := range st.IDs() {
		s, ok := st.Get(id)
		if !ok {
			continue // deleted between IDs() and now
		}
		ck, snap, err := checkpointSession(s)
		if err != nil {
			return nil, err
		}
		if snap != nil && slabRecordable(ck.Spec, snap) {
			key := slabGroupKey(ck.Spec.Algo, snap.Arms)
			g := groups[key]
			if g == nil {
				g = &slabCheckpoint{Algo: ck.Spec.Algo, Arms: snap.Arms}
				groups[key] = g
			}
			appendSlabEntry(g, &ck, snap)
			continue
		}
		if snap != nil {
			data, err := json.Marshal(snap)
			if err != nil {
				return nil, fmt.Errorf("session %s: %w", ck.ID, err)
			}
			ck.Agent = data
		}
		file.Sessions = append(file.Sessions, ck)
	}
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		file.Slabs = append(file.Slabs, *groups[key])
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
	for gi := range file.Slabs {
		g := &file.Slabs[gi]
		if err := g.validate(); err != nil {
			return nil, &CheckpointError{Reason: err.Error()}
		}
		for i := range g.IDs {
			if err := st.restoreSlabSession(g, i); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// restoreSlabSession rebuilds entry i of a slab group. The column entry
// is expanded into the same AgentSnapshot a per-session record would
// carry — the policy block comes from the algorithm registry, the round-robin
// queue from its tail length — and then restores through the exact path
// per-session records use, so the two formats cannot drift apart.
func (st *Store) restoreSlabSession(g *slabCheckpoint, i int) error {
	id := g.IDs[i]
	where := fmt.Sprintf("slab group %s/%d entry %d (%s)", g.Algo, g.Arms, i, id)
	if id == "" {
		return &CheckpointError{Reason: where + ": empty session id"}
	}
	spec := g.Specs[i]
	spec.normalize()
	if err := spec.Validate(); err != nil {
		return &CheckpointError{Reason: fmt.Sprintf("%s: %v", where, err)}
	}
	if spec.Algo != g.Algo || !slabAlgos[spec.Algo] || len(spec.MetaPairs) != 0 {
		return &CheckpointError{Reason: fmt.Sprintf("%s: spec algo %q does not belong in this group", where, spec.Algo)}
	}
	if spec.Arms != g.Arms {
		return &CheckpointError{Reason: fmt.Sprintf("%s: spec arms %d != group arms %d", where, spec.Arms, g.Arms)}
	}
	open, arm := g.Opens[i], g.OpenArms[i]
	if open && (arm < 0 || arm >= spec.Arms) {
		return &CheckpointError{Reason: fmt.Sprintf("%s: open arm %d outside [0,%d)", where, arm, spec.Arms)}
	}
	if g.InSteps[i] != open {
		return &CheckpointError{Reason: fmt.Sprintf("%s: in_steps %v disagrees with opens %v", where, g.InSteps[i], open)}
	}
	set, err := fault.ParseSet(spec.Faults)
	if err != nil {
		return &CheckpointError{Reason: fmt.Sprintf("%s: %v", where, err)}
	}
	ps, err := core.AlgoPolicySnapshot(spec.Algo)
	if err != nil {
		return &CheckpointError{Reason: fmt.Sprintf("%s: %v", where, err)}
	}
	forcedLen := g.ForcedLens[i]
	if forcedLen < 0 || forcedLen > g.Arms {
		return &CheckpointError{Reason: fmt.Sprintf("%s: forced_lens %d outside [0,%d]", where, forcedLen, g.Arms)}
	}
	var forced []int
	if forcedLen > 0 {
		forced = make([]int, forcedLen)
		for j := range forced {
			forced[j] = g.Arms - forcedLen + j
		}
	}
	snap := core.AgentSnapshot{
		V: core.SnapshotVersion, Arms: g.Arms, Policy: ps,
		Normalize: true, Seed: spec.Seed,
		R: g.R[i*g.Arms : (i+1)*g.Arms], N: g.N[i*g.Arms : (i+1)*g.Arms],
		NTotal: g.NTotals[i], Steps: g.Steps[i], CurrentArm: g.CurrentArms[i],
		InStep: g.InSteps[i], Forced: forced, RAvg: g.RAvgs[i],
		Normalized: g.Normalizeds[i], Restarts: g.Restarts[i], RNG: g.RNGs[i],
	}

	sh := st.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[id]; ok {
		return &CheckpointError{Reason: fmt.Sprintf("duplicate session id %q", id)}
	}
	chunk := st.lockedChunkFor(sh, g.Arms)
	a, slot, err := core.RestoreAgentIn(chunk.slab, &snap)
	if err != nil {
		return &CheckpointError{Reason: fmt.Sprintf("%s: %v", where, err)}
	}
	drive := fault.Controller(a, set, spec.Seed)
	s := &Session{
		id: id, spec: spec, agent: a, drive: drive,
		seq: g.Seqs[i], open: open, arm: arm,
		slab: chunk.slab, slot: slot, slabOrd: chunk.ord,
	}
	s.kernelOK = drive == core.Controller(a)
	sh.m[id] = s
	return nil
}

// LoadCheckpoint reads and restores a checkpoint file.
func LoadCheckpoint(path string, shards int) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return RestoreCheckpoint(data, shards)
}
