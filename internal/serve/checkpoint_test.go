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
	// Agent records restore into their shard's slab.
	for _, id := range st2.IDs() {
		s, _ := st2.Get(id)
		if _, isAgent := s.agent.(*core.Agent); isAgent && s.slab == nil {
			t.Fatalf("agent session %s (%s) restored off the shard slab", id, s.spec.Algo)
		}
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

// TestRestoreManySessionsOneShard restores a 1200-session checkpoint
// into a one-shard store: every session continues its arm stream, and
// the restore grows the shard's arena by doubling, so it builds ten
// chunks (4, 4, 8, ..., 512, 512 slots) rather than one per session or a
// full-size chunk for the first.
func TestRestoreManySessionsOneShard(t *testing.T) {
	const sessions = 1200
	st := NewStore(0)
	ids := make([]string, sessions)
	for i := range ids {
		s, err := st.Create(Spec{Algo: "ducb", Arms: 8, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		ids[i] = s.ID()
	}
	driveSessions(t, st, ids, 5)
	data, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	restored, err := RestoreCheckpoint(data, 1)
	if err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	if n := restored.Len(); n != sessions {
		t.Fatalf("restored %d sessions, want %d", n, sessions)
	}
	if n := arenaChunks(restored, 8); n != 10 {
		t.Fatalf("restore built %d chunks, want 10", n)
	}
	want := driveSessions(t, st, ids, 20)
	got := driveSessions(t, restored, ids, 20)
	for _, id := range ids {
		for i := range want[id] {
			if got[id][i] != want[id][i] {
				t.Fatalf("session %s decision %d: restored arm %d, original %d", id, i, got[id][i], want[id][i])
			}
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
		{"missing id", []byte(`{"v":3,"next_id":1,"sessions":[{"spec":{"arms":2},"kind":"fixed"}]}`)},
		{"unknown kind", []byte(`{"v":3,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2},"kind":"alien"}]}`)},
		{"bad spec", []byte(`{"v":3,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":0},"kind":"fixed"}]}`)},
		{"fixed arm out of range", []byte(`{"v":3,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2,"algo":"static:0"},"kind":"fixed","fixed_arm":9}]}`)},
		{"agent payload garbage", []byte(`{"v":3,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2},"kind":"agent","agent":{"v":1}}]}`)},
		{"meta low arms huge", []byte(`{"v":3,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2,"meta_pairs":[[0.5,0.99],[1,0.999]]},"kind":"meta","agent":{"v":1,"high":{"v":1,"arms":2,"policy":{"kind":"ucb"},"seed":1,"rtable":[0,0],"ntable":[0,0],"ntotal":0,"steps":0,"current_arm":0,"rng":[1,2,3,4]},"lows":[{"v":1,"arms":4611686018427387904},{"v":1,"arms":2}],"labels":["a","b"],"current":0}}]}`)},
		{"thompson policy", []byte(`{"v":3,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2},"kind":"agent","agent":{"v":1,"arms":2,"policy":{"kind":"thompson","sigma":0.04,"gamma":0.999},"normalize":true,"seed":1,"rtable":[0,0],"ntable":[0,0],"ntotal":0,"steps":0,"current_arm":0,"forced":[0,1],"rng":[1,2,3,4]}}]}`)},
		{"ctx-thompson spec", []byte(`{"v":3,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2,"algo":"ctx-thompson"},"kind":"ctx","agent":{"v":1,"arms":2,"algo":"ducb","seed":1,"steps":0,"contexts":[]}}]}`)},
		{"ctx thompson base", []byte(`{"v":3,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2,"algo":"ctx-ducb"},"kind":"ctx","agent":{"v":1,"arms":2,"algo":"thompson","seed":1,"steps":0,"contexts":[]}}]}`)},
		{"open arm out of range", []byte(`{"v":3,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2,"algo":"static:0"},"kind":"fixed","fixed_arm":0,"open":true,"arm":7}]}`)},
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
	if s2.slab == nil {
		t.Fatal("faulted agent session must restore into the slab")
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

// v2CheckpointPath holds a version-2 file as the previous build wrote
// it: the golden session script, with slab-eligible agents in column
// slab groups.
var v2CheckpointPath = filepath.Join("testdata", "checkpoint_v2.json")

// TestRestoreRefusesV1: files of the older versions — version 1, and
// version 2 both as per-session records and as the previous build's
// slab-group file — are refused with a typed error naming their version
// and the one version this build reads.
func TestRestoreRefusesV1(t *testing.T) {
	st := NewStore(1)
	for _, sp := range ckptSpecs() {
		if _, err := st.Create(sp); err != nil {
			t.Fatalf("Create(%+v): %v", sp, err)
		}
	}
	good, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	v2, err := os.ReadFile(v2CheckpointPath)
	if err != nil {
		t.Fatalf("read v2 checkpoint: %v", err)
	}
	for _, c := range []struct {
		v    int
		data []byte
	}{
		{1, mutateCheckpoint(t, good, func(f *checkpointFile) { f.V = 1 })},
		{2, mutateCheckpoint(t, good, func(f *checkpointFile) { f.V = 2 })},
		{2, v2},
	} {
		_, err := RestoreCheckpoint(c.data, 1)
		var ce *CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("v%d: err = %v (%T), want *CheckpointError", c.v, err, err)
		}
		want := fmt.Sprintf("version %d (this build reads version %d only)", c.v, CheckpointVersion)
		if !strings.Contains(ce.Error(), want) {
			t.Fatalf("v%d: error %q does not contain %q", c.v, ce.Error(), want)
		}
	}
}

// TestRestoreSlabHostile: structurally broken agent records — the ones
// that restore into a shard slab — are rejected with typed
// *CheckpointError values, never panics or silent corruption.
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
		{"empty id", func(f *checkpointFile) { f.Sessions[0].ID = "" }},
		{"spec arms mismatch", func(f *checkpointFile) { f.Sessions[0].Spec.Arms++ }},
		{"table length mismatch", func(f *checkpointFile) {
			editAgentRecord(t, &f.Sessions[0], func(a *core.AgentSnapshot) { a.R = a.R[:1] })
		}},
		{"open arm out of range", func(f *checkpointFile) {
			f.Sessions[0].Open = true
			f.Sessions[0].Arm = f.Sessions[0].Spec.Arms + 2
		}},
		{"arms zero", func(f *checkpointFile) {
			editAgentRecord(t, &f.Sessions[0], func(a *core.AgentSnapshot) { a.Arms = 0 })
		}},
		{"id collides with session record", func(f *checkpointFile) {
			f.Sessions = append(f.Sessions, sessionCheckpoint{
				ID: f.Sessions[0].ID, Spec: Spec{Algo: "static:0", Arms: 2},
				Kind: ckptFixed, FixedArm: 0,
			})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := RestoreCheckpoint(mutateCheckpoint(t, base, c.mutate), 1)
			var ce *CheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v (%T), want *CheckpointError", err, err)
			}
		})
	}
}

// TestRestoreCorruptedCheckpointFiles feeds damaged checkpoint bytes —
// truncations and single-bit flips at byte strides, over a version-3
// file and two version-2 files (per-session records, and the previous
// build's slab-group golden) — through RestoreCheckpoint.
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

	v3, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	records := mutateCheckpoint(t, v3, func(f *checkpointFile) { f.V = 2 })
	v2, err := os.ReadFile(v2CheckpointPath)
	if err != nil {
		t.Fatalf("read v2 checkpoint: %v", err)
	}

	for _, f := range []struct {
		name string
		data []byte
	}{{"v2-records", records}, {"v2", v2}, {"v3", v3}} {
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
