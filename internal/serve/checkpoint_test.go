package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microbandit/internal/core"
)

// ckptReward is a deterministic per-(session, arm, step) reward so replay
// comparisons exercise real learning dynamics.
func ckptReward(sess int, arm int, step uint64) float64 {
	x := float64(sess+1)*0.13 + float64(arm)*0.31 + float64(step)*0.017
	return 0.5 + 0.5*math.Sin(x)
}

// ckptSpecs is the session mix used by the replay tests: every
// checkpointable controller shape, fault-free (fault streams are
// intentionally not persisted, so only fault-free sessions promise exact
// replay).
func ckptSpecs() []Spec {
	return []Spec{
		{Algo: "ducb", Arms: 5, Seed: 11},
		{Algo: "ucb", Arms: 3, Seed: 12},
		{Algo: "eps", Arms: 4, Seed: 13},
		{Algo: "single", Arms: 4, Seed: 14},
		{Algo: "periodic", Arms: 3, Seed: 15},
		{Algo: "static:1", Arms: 2, Seed: 16},
		{Arms: 3, Seed: 17, MetaPairs: [][2]float64{{0.5, 0.99}, {1.0, 0.999}, {2.0, 1.0}}},
	}
}

// driveSessions runs n full decisions on every session, returning the arm
// sequence per session id.
func driveSessions(t *testing.T, st *Store, ids []string, n int) map[string][]int {
	t.Helper()
	arms := make(map[string][]int, len(ids))
	for si, id := range ids {
		s, ok := st.Get(id)
		if !ok {
			t.Fatalf("session %s missing", id)
		}
		for i := 0; i < n; i++ {
			seq, arm, err := s.Step()
			if err != nil {
				t.Fatalf("session %s step: %v", id, err)
			}
			if _, err := s.Reward(seq, ckptReward(si, arm, seq)); err != nil {
				t.Fatalf("session %s reward: %v", id, err)
			}
			arms[id] = append(arms[id], arm)
		}
	}
	return arms
}

// TestCheckpointReplayAcrossRestart is the acceptance-criteria test: run
// a mixed session population, checkpoint mid-stream, keep driving the
// original, then restore the checkpoint into a fresh store and verify the
// restored sessions emit the identical arm sequences.
func TestCheckpointReplayAcrossRestart(t *testing.T) {
	st := NewStore(4)
	var ids []string
	for _, sp := range ckptSpecs() {
		s, err := st.Create(sp)
		if err != nil {
			t.Fatalf("Create(%+v): %v", sp, err)
		}
		ids = append(ids, s.ID())
	}
	driveSessions(t, st, ids, 37)

	// One session checkpointed with a step open (between Step and Reward).
	openSess, err := st.Create(Spec{Algo: "ducb", Arms: 4, Seed: 99})
	if err != nil {
		t.Fatalf("Create open session: %v", err)
	}
	openSeq, openArm, err := openSess.Step()
	if err != nil {
		t.Fatalf("open step: %v", err)
	}

	data, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	// Continue the original store past the checkpoint.
	want := driveSessions(t, st, ids, 120)

	// Restart: restore into a fresh store with a different shard count
	// (shard layout must not affect behavior).
	st2, err := RestoreCheckpoint(data, 2)
	if err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	if st2.Len() != len(ids)+1 {
		t.Fatalf("restored %d sessions, want %d", st2.Len(), len(ids)+1)
	}
	got := driveSessions(t, st2, ids, 120)
	for _, id := range ids {
		w, g := want[id], got[id]
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("session %s diverges at decision %d: original %d, restored %d", id, i, w[i], g[i])
			}
		}
	}

	// The open decision survived the restart: a second step conflicts,
	// the pending reward with the right seq lands.
	restoredOpen, ok := st2.Get(openSess.ID())
	if !ok {
		t.Fatalf("open session %s missing after restore", openSess.ID())
	}
	info, err := restoredOpen.Info()
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if !info.Open || info.Arm != openArm || info.Seq != openSeq {
		t.Fatalf("restored open session info = %+v, want open arm %d seq %d", info, openArm, openSeq)
	}
	if _, _, err := restoredOpen.Step(); !isProtocol(err, CodeStepOpen) {
		t.Fatalf("step on restored open session: %v, want %s", err, CodeStepOpen)
	}
	if _, err := restoredOpen.Reward(openSeq, 0.5); err != nil {
		t.Fatalf("reward on restored open session: %v", err)
	}

	// Restored rewards advance agents identically to the originals: close
	// the original open session the same way and compare the next arms.
	if _, err := openSess.Reward(openSeq, 0.5); err != nil {
		t.Fatalf("reward on original open session: %v", err)
	}
	for i := 0; i < 50; i++ {
		s1, a1, err1 := openSess.Step()
		s2, a2, err2 := restoredOpen.Step()
		if err1 != nil || err2 != nil || s1 != s2 || a1 != a2 {
			t.Fatalf("open-session continuation diverges at %d: (%d,%d,%v) vs (%d,%d,%v)", i, s1, a1, err1, s2, a2, err2)
		}
		r := ckptReward(0, a1, s1)
		if _, err := openSess.Reward(s1, r); err != nil {
			t.Fatalf("reward: %v", err)
		}
		if _, err := restoredOpen.Reward(s2, r); err != nil {
			t.Fatalf("reward: %v", err)
		}
	}
}

// TestCheckpointNextIDSurvives verifies that ids allocated after a
// restore don't collide with checkpointed sessions.
func TestCheckpointNextIDSurvives(t *testing.T) {
	st := NewStore(2)
	for i := 0; i < 3; i++ {
		if _, err := st.Create(Spec{Algo: "eps", Arms: 2}); err != nil {
			t.Fatalf("Create: %v", err)
		}
	}
	data, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st2, err := RestoreCheckpoint(data, 2)
	if err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	s, err := st2.Create(Spec{Algo: "eps", Arms: 2})
	if err != nil {
		t.Fatalf("Create after restore: %v", err)
	}
	if s.ID() != "s-00000004" {
		t.Fatalf("post-restore id = %q, want s-00000004", s.ID())
	}
}

// TestCheckpointDeterministicBytes: a quiesced store checkpoints to
// identical bytes every time, and a restore checkpoints back to the same
// bytes.
func TestCheckpointDeterministicBytes(t *testing.T) {
	st := NewStore(4)
	var ids []string
	for _, sp := range ckptSpecs() {
		s, err := st.Create(sp)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		ids = append(ids, s.ID())
	}
	driveSessions(t, st, ids, 25)

	a, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	b, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("repeated checkpoints differ")
	}
	st2, err := RestoreCheckpoint(a, 8)
	if err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	c, err := st2.Checkpoint()
	if err != nil {
		t.Fatalf("restored Checkpoint: %v", err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("checkpoint of restored store differs from original")
	}
}

func TestWriteCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	st := NewStore(1)
	if _, err := st.Create(Spec{Algo: "ucb", Arms: 2}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := st.WriteCheckpoint(path); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	// Overwrite works and leaves no temp droppings.
	if err := st.WriteCheckpoint(path); err != nil {
		t.Fatalf("second WriteCheckpoint: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 || entries[0].Name() != "ckpt.json" {
		t.Fatalf("dir contents = %v, want only ckpt.json", entries)
	}
	if _, err := LoadCheckpoint(path, 0); err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
}

// TestRestoreCheckpointTypedErrors: hostile checkpoint bytes produce
// typed *CheckpointError values, never panics.
func TestRestoreCheckpointTypedErrors(t *testing.T) {
	st := NewStore(1)
	s, err := st.Create(Spec{Algo: "ducb", Arms: 3, Seed: 2})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	seq, _, _ := s.Step()
	s.Reward(seq, 1)
	good, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"not json", []byte("definitely not json")},
		{"truncated", good[:len(good)/2]},
		{"wrong version", []byte(`{"v":999,"next_id":1,"sessions":[]}`)},
		{"missing id", []byte(`{"v":2,"next_id":1,"sessions":[{"spec":{"arms":2},"kind":"fixed"}]}`)},
		{"unknown kind", []byte(`{"v":2,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2},"kind":"alien"}]}`)},
		{"bad spec", []byte(`{"v":2,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":0},"kind":"fixed"}]}`)},
		{"fixed arm out of range", []byte(`{"v":2,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2,"algo":"static:0"},"kind":"fixed","fixed_arm":9}]}`)},
		{"agent payload garbage", []byte(`{"v":2,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2},"kind":"agent","agent":{"v":1}}]}`)},
		{"open arm out of range", []byte(`{"v":2,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2,"algo":"static:0"},"kind":"fixed","fixed_arm":0,"open":true,"arm":7}]}`)},
		{"duplicate id", dupSessionCheckpoint(t, good)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := RestoreCheckpoint(c.data, 1)
			var ce *CheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v (%T), want *CheckpointError", err, err)
			}
			if ce.Error() == "" {
				t.Fatal("empty error string")
			}
		})
	}
}

// dupSessionCheckpoint doubles the session list of a valid checkpoint so
// the same id appears twice.
func dupSessionCheckpoint(t *testing.T, good []byte) []byte {
	t.Helper()
	var file checkpointFile
	if err := json.Unmarshal(good, &file); err != nil {
		t.Fatalf("unmarshal good checkpoint: %v", err)
	}
	file.Sessions = append(file.Sessions, file.Sessions...)
	for gi := range file.Slabs {
		g := &file.Slabs[gi]
		g.IDs = append(g.IDs, g.IDs...)
		g.Specs = append(g.Specs, g.Specs...)
		g.Seqs = append(g.Seqs, g.Seqs...)
		g.Opens = append(g.Opens, g.Opens...)
		g.OpenArms = append(g.OpenArms, g.OpenArms...)
		g.R = append(g.R, g.R...)
		g.N = append(g.N, g.N...)
		g.NTotals = append(g.NTotals, g.NTotals...)
		g.Steps = append(g.Steps, g.Steps...)
		g.CurrentArms = append(g.CurrentArms, g.CurrentArms...)
		g.InSteps = append(g.InSteps, g.InSteps...)
		g.ForcedLens = append(g.ForcedLens, g.ForcedLens...)
		g.RAvgs = append(g.RAvgs, g.RAvgs...)
		g.Normalizeds = append(g.Normalizeds, g.Normalizeds...)
		g.Restarts = append(g.Restarts, g.Restarts...)
		g.RNGs = append(g.RNGs, g.RNGs...)
	}
	data, err := json.Marshal(file)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestCheckpointSkipsNothing: every session created is present in the
// checkpoint (mixed kinds), and fault-armed sessions round-trip their
// spec so the wrapper is rebuilt.
func TestCheckpointFaultSpecRoundTrips(t *testing.T) {
	st := NewStore(1)
	s, err := st.Create(Spec{Algo: "ducb", Arms: 3, Seed: 4, Faults: "noise:0.3"})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 10; i++ {
		seq, _, err := s.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if _, err := s.Reward(seq, 0.5); err != nil {
			t.Fatalf("reward: %v", err)
		}
	}
	data, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st2, err := RestoreCheckpoint(data, 1)
	if err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	s2, ok := st2.Get(s.ID())
	if !ok {
		t.Fatal("session missing after restore")
	}
	if s2.Spec().Faults != "noise:0.3" {
		t.Fatalf("fault spec = %q after restore", s2.Spec().Faults)
	}
	if _, ok := s2.drive.(*core.Agent); ok {
		t.Fatal("restored drive is the bare agent; fault wrapper not rebuilt")
	}
	// The restored session still serves.
	seq, _, err := s2.Step()
	if err != nil {
		t.Fatalf("restored step: %v", err)
	}
	if _, err := s2.Reward(seq, 0.5); err != nil {
		t.Fatalf("restored reward: %v", err)
	}
}

// checkpointPerSession encodes a store as a version-2 file whose every
// session, slab-eligible or not, is a per-session record — the other of
// the two encodings the restorer accepts.
func checkpointPerSession(t *testing.T, st *Store) []byte {
	t.Helper()
	file := checkpointFile{V: CheckpointVersion, NextID: st.nextID.Load()}
	for _, id := range st.IDs() {
		s, ok := st.Get(id)
		if !ok {
			continue
		}
		ck, snap, err := checkpointSession(s)
		if err != nil {
			t.Fatalf("checkpointSession(%s): %v", id, err)
		}
		if snap != nil {
			data, err := json.Marshal(snap)
			if err != nil {
				t.Fatalf("marshal snapshot %s: %v", id, err)
			}
			ck.Agent = data
		}
		file.Sessions = append(file.Sessions, ck)
	}
	data, err := json.Marshal(file)
	if err != nil {
		t.Fatalf("marshal per-session file: %v", err)
	}
	return data
}

// TestCheckpointPerSessionMatchesSlab: the all-per-session encoding and
// the slab encoding of the same store restore into sessions with
// identical future decision streams, so the two record formats cannot
// drift apart.
func TestCheckpointPerSessionMatchesSlab(t *testing.T) {
	st := NewStore(2)
	var ids []string
	for _, sp := range ckptSpecs() {
		s, err := st.Create(sp)
		if err != nil {
			t.Fatalf("Create(%+v): %v", sp, err)
		}
		ids = append(ids, s.ID())
	}
	driveSessions(t, st, ids, 25)

	records := checkpointPerSession(t, st)
	slabs, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st1, err := RestoreCheckpoint(records, 3)
	if err != nil {
		t.Fatalf("RestoreCheckpoint(per-session): %v", err)
	}
	st2, err := RestoreCheckpoint(slabs, 3)
	if err != nil {
		t.Fatalf("RestoreCheckpoint(slab): %v", err)
	}
	got1 := driveSessions(t, st1, ids, 80)
	got2 := driveSessions(t, st2, ids, 80)
	for _, id := range ids {
		a, b := got1[id], got2[id]
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("session %s: per-session and slab restores diverge at decision %d (%d vs %d)", id, i, a[i], b[i])
			}
		}
	}
}

// TestRestoreRefusesV1: a version-1 file (the same per-session records
// under "v":1) is refused with a typed error naming the one version
// this build reads.
func TestRestoreRefusesV1(t *testing.T) {
	st := NewStore(1)
	for _, sp := range ckptSpecs() {
		if _, err := st.Create(sp); err != nil {
			t.Fatalf("Create(%+v): %v", sp, err)
		}
	}
	v1 := mutateCheckpoint(t, checkpointPerSession(t, st), func(f *checkpointFile) { f.V = 1 })
	_, err := RestoreCheckpoint(v1, 1)
	var ce *CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CheckpointError", err, err)
	}
	if want := fmt.Sprintf("version %d", CheckpointVersion); !strings.Contains(ce.Error(), want) {
		t.Fatalf("error %q does not name %q", ce.Error(), want)
	}
}

// TestCheckpointV2SlabLayout: eligible sessions (stateless-policy agents,
// registry hyperparameters) land in column slab groups — including
// fault-armed ones, whose wrapper is rebuilt from the spec — while mode
// -stateful agents, fixed arms, and meta sessions keep per-session
// records. Restored slab sessions come back batch-kernel eligible.
func TestCheckpointV2SlabLayout(t *testing.T) {
	st := NewStore(2)
	var ids []string
	for _, sp := range append(ckptSpecs(), Spec{Algo: "ducb", Arms: 5, Seed: 77, Faults: "noise:0.2"}) {
		s, err := st.Create(sp)
		if err != nil {
			t.Fatalf("Create(%+v): %v", sp, err)
		}
		ids = append(ids, s.ID())
	}
	driveSessions(t, st, ids, 12)

	data, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	var file checkpointFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("unmarshal checkpoint: %v", err)
	}
	if file.V != CheckpointVersion {
		t.Fatalf("file version %d, want %d", file.V, CheckpointVersion)
	}
	// ducb/5 (two sessions: plain + faulted), eps/4, ucb/3.
	if len(file.Slabs) != 3 {
		t.Fatalf("got %d slab groups, want 3", len(file.Slabs))
	}
	entries := 0
	for gi := range file.Slabs {
		g := &file.Slabs[gi]
		if err := g.validate(); err != nil {
			t.Fatalf("written group fails validate: %v", err)
		}
		if gi > 0 {
			prev := &file.Slabs[gi-1]
			if slabGroupKey(prev.Algo, prev.Arms) >= slabGroupKey(g.Algo, g.Arms) {
				t.Fatalf("slab groups not sorted: %s/%d before %s/%d", prev.Algo, prev.Arms, g.Algo, g.Arms)
			}
		}
		for i, sp := range g.Specs {
			if sp.Algo != g.Algo || sp.Arms != g.Arms {
				t.Fatalf("group %s/%d entry %d has spec %s/%d", g.Algo, g.Arms, i, sp.Algo, sp.Arms)
			}
		}
		entries += len(g.IDs)
	}
	if entries != 4 {
		t.Fatalf("%d slab entries, want 4 (ducb x2, ucb, eps)", entries)
	}
	// single, periodic, static:1, meta stay as per-session records.
	if len(file.Sessions) != 4 {
		t.Fatalf("%d per-session records, want 4", len(file.Sessions))
	}
	for _, ck := range file.Sessions {
		if slabAlgos[ck.Spec.Algo] && len(ck.Spec.MetaPairs) == 0 {
			t.Fatalf("slab-eligible session %s written as a per-session record", ck.ID)
		}
	}

	st2, err := RestoreCheckpoint(data, 1)
	if err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	kernelEligible := 0
	for _, id := range st2.IDs() {
		s, ok := st2.Get(id)
		if !ok {
			t.Fatalf("restored session %s missing", id)
		}
		if s.spec.Faults != "" {
			if s.kernelOK {
				t.Fatalf("faulted session %s restored kernel-eligible", id)
			}
			continue
		}
		if s.slab != nil {
			if !s.kernelOK {
				t.Fatalf("fault-free slab session %s restored with kernelOK=false", id)
			}
			kernelEligible++
		}
	}
	if kernelEligible < 3 {
		t.Fatalf("only %d restored sessions are kernel-eligible, want >= 3", kernelEligible)
	}
}

// TestRestoreSlabHostile: structurally broken slab groups are rejected
// with typed *CheckpointError values, never panics or silent corruption.
func TestRestoreSlabHostile(t *testing.T) {
	st := NewStore(1)
	s, err := st.Create(Spec{Algo: "eps", Arms: 3, Seed: 9})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	id := s.ID()
	driveSessions(t, st, []string{id}, 6)
	base, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(f *checkpointFile)
	}{
		{"empty id", func(f *checkpointFile) { f.Slabs[0].IDs[0] = "" }},
		{"non-slab algo", func(f *checkpointFile) {
			f.Slabs[0].Algo = "periodic"
			f.Slabs[0].Specs[0].Algo = "periodic"
		}},
		{"spec algo mismatch", func(f *checkpointFile) { f.Slabs[0].Specs[0].Algo = "ucb" }},
		{"spec arms mismatch", func(f *checkpointFile) { f.Slabs[0].Specs[0].Arms++ }},
		{"column length mismatch", func(f *checkpointFile) { f.Slabs[0].Seqs = nil }},
		{"table length mismatch", func(f *checkpointFile) { f.Slabs[0].R = f.Slabs[0].R[:1] }},
		{"forced len out of range", func(f *checkpointFile) { f.Slabs[0].ForcedLens[0] = f.Slabs[0].Arms + 1 }},
		{"negative forced len", func(f *checkpointFile) { f.Slabs[0].ForcedLens[0] = -1 }},
		{"open arm out of range", func(f *checkpointFile) {
			f.Slabs[0].Opens[0] = true
			f.Slabs[0].OpenArms[0] = f.Slabs[0].Arms + 2
		}},
		{"arms zero", func(f *checkpointFile) { f.Slabs[0].Arms = 0 }},
		{"id collides with session record", func(f *checkpointFile) {
			f.Sessions = append(f.Sessions, sessionCheckpoint{
				ID: f.Slabs[0].IDs[0], Spec: Spec{Algo: "static:0", Arms: 2},
				Kind: ckptFixed, FixedArm: 0,
			})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var file checkpointFile
			if err := json.Unmarshal(base, &file); err != nil {
				t.Fatalf("unmarshal base: %v", err)
			}
			c.mutate(&file)
			data, err := json.Marshal(file)
			if err != nil {
				t.Fatalf("marshal mutated: %v", err)
			}
			_, err = RestoreCheckpoint(data, 1)
			var ce *CheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v (%T), want *CheckpointError", err, err)
			}
		})
	}
}

// TestRestoreCorruptedCheckpointFiles feeds damaged checkpoint bytes —
// truncations and single-bit flips at byte strides, over both v2
// encodings (all per-session records, and slab groups) — through
// RestoreCheckpoint.
// The contract under fire: a restore either succeeds or returns a typed
// *CheckpointError (naming the byte offset for decode failures), and it
// never panics. This is the on-disk analogue of a crash mid-write.
func TestRestoreCorruptedCheckpointFiles(t *testing.T) {
	st := NewStore(2)
	var ids []string
	for _, sp := range ckptSpecs() {
		s, err := st.Create(sp)
		if err != nil {
			t.Fatalf("Create(%+v): %v", sp, err)
		}
		ids = append(ids, s.ID())
	}
	driveSessions(t, st, ids, 12)

	records := checkpointPerSession(t, st)
	v2, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	for _, f := range []struct {
		name string
		data []byte
	}{{"v2-records", records}, {"v2", v2}} {
		f := f
		t.Run(f.name+"/truncated", func(t *testing.T) {
			// Every proper prefix of the JSON object is malformed: the
			// restore must fail with a typed error that names an offset
			// inside (or at the end of) what it was given.
			stride := len(f.data)/97 + 1
			for cut := 0; cut < len(f.data); cut += stride {
				_, err := RestoreCheckpoint(f.data[:cut], 1)
				var ce *CheckpointError
				if !errors.As(err, &ce) {
					t.Fatalf("cut at %d: err = %v (%T), want *CheckpointError", cut, err, err)
				}
				if cut > 0 && ce.Reason == "decode" && (ce.Offset <= 0 || ce.Offset > int64(cut)+1) {
					t.Fatalf("cut at %d: decode error names offset %d, outside the %d bytes given", cut, ce.Offset, cut)
				}
			}
		})
		t.Run(f.name+"/bit-flipped", func(t *testing.T) {
			// A flipped bit may survive (a digit becomes another digit) or
			// fail; what it must never do is panic or surface an untyped
			// error.
			stride := len(f.data)/211 + 1
			buf := make([]byte, len(f.data))
			for pos := 0; pos < len(f.data); pos += stride {
				for _, bit := range []uint{0, 3, 6} {
					copy(buf, f.data)
					buf[pos] ^= 1 << bit
					rst, err := RestoreCheckpoint(buf, 1)
					if err != nil {
						var ce *CheckpointError
						if !errors.As(err, &ce) {
							t.Fatalf("flip %d/bit %d: err = %v (%T), want *CheckpointError", pos, bit, err, err)
						}
						continue
					}
					// Accepted corruption must still be a coherent store.
					if rst == nil {
						t.Fatalf("flip %d/bit %d: nil store with nil error", pos, bit)
					}
				}
			}
		})
	}
}
