package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"microbandit/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden checkpoint in testdata")

// goldenCheckpointPath holds the recorded checkpoint bytes of
// goldenStore.
var goldenCheckpointPath = filepath.Join("testdata", "checkpoint_golden.json")

// goldenSpecs is the session script behind the golden checkpoint: plain
// agents (ducb, ucb and eps at two arm counts), a meta agent, a fixed
// arm, contextual agents, and a fault-armed mode-stateful agent.
func goldenSpecs() []Spec {
	return []Spec{
		{Algo: "ducb", Arms: 4, Seed: 1},
		{Algo: "ducb", Arms: 8, Seed: 2},
		{Algo: "ucb", Arms: 4, Seed: 3},
		{Algo: "ucb", Arms: 8, Seed: 4},
		{Algo: "eps", Arms: 4, Seed: 5},
		{Algo: "eps", Arms: 8, Seed: 6},
		{Arms: 3, Seed: 7, MetaPairs: [][2]float64{{0.5, 0.99}, {1.0, 0.999}}},
		{Algo: "static:2", Arms: 4, Seed: 8},
		{Algo: "ctx-ducb", Arms: 4, Seed: 9, MaxContexts: 4},
		{Algo: "ctx-ducb", Arms: 3, Seed: 10},
		{Algo: "periodic", Arms: 4, Seed: 11, Faults: "noise:0.3"},
	}
}

// goldenDrive runs n full decisions on the session at script index si,
// stepping contextual sessions through the ctxVecFor schedule.
func goldenDrive(t *testing.T, s *Session, si, from, n int) []int {
	t.Helper()
	_, contextual := core.ContextualBase(s.Spec().Algo)
	var arms []int
	for r := from; r < from+n; r++ {
		var (
			seq uint64
			arm int
			err error
		)
		if contextual {
			v := ctxVecFor(r + si)
			seq, arm, err = s.StepWithContext(v[:])
		} else {
			seq, arm, err = s.Step()
		}
		if err != nil {
			t.Fatalf("session %s round %d step: %v", s.ID(), r, err)
		}
		if _, err := s.Reward(seq, ckptReward(si, arm, seq)); err != nil {
			t.Fatalf("session %s round %d reward: %v", s.ID(), r, err)
		}
		arms = append(arms, arm)
	}
	return arms
}

// goldenStore plays the golden session script: every scripted session
// is driven a different number of decisions, then a DUCB session and a
// contextual session each open one decision that stays pending in the
// checkpoint.
func goldenStore(t *testing.T) (st *Store, ids []string, open []*Session) {
	t.Helper()
	st = NewStore(4)
	for si, sp := range goldenSpecs() {
		s, err := st.Create(sp)
		if err != nil {
			t.Fatalf("Create(%+v): %v", sp, err)
		}
		ids = append(ids, s.ID())
		goldenDrive(t, s, si, 0, 20+3*si)
	}
	for _, sp := range []Spec{{Algo: "ducb", Arms: 8, Seed: 12}, {Algo: "ctx-ducb", Arms: 3, Seed: 13}} {
		s, err := st.Create(sp)
		if err != nil {
			t.Fatalf("Create(%+v): %v", sp, err)
		}
		goldenDrive(t, s, len(ids), 0, 9)
		if _, contextual := core.ContextualBase(sp.Algo); contextual {
			v := ctxVecFor(2)
			_, _, err = s.StepWithContext(v[:])
		} else {
			_, _, err = s.Step()
		}
		if err != nil {
			t.Fatalf("open step on %s: %v", s.ID(), err)
		}
		open = append(open, s)
	}
	return st, ids, open
}

// TestCheckpointGolden pins the checkpoint wire format: the scripted
// store must checkpoint to exactly the recorded bytes, and restoring the
// recorded file must continue every fault-free session's decision
// stream exactly as the live store does. Re-record with -update only for
// a change meant to alter the format.
func TestCheckpointGolden(t *testing.T) {
	st, ids, open := goldenStore(t)
	data, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile(goldenCheckpointPath, data, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenCheckpointPath, len(data))
	}
	golden, err := os.ReadFile(goldenCheckpointPath)
	if err != nil {
		t.Fatalf("read golden (record it with -update): %v", err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("checkpoint bytes differ from %s (%d vs %d bytes)", goldenCheckpointPath, len(data), len(golden))
	}

	restored, err := RestoreCheckpoint(golden, 2)
	if err != nil {
		t.Fatalf("RestoreCheckpoint(golden): %v", err)
	}
	if restored.Len() != st.Len() {
		t.Fatalf("restored %d sessions, want %d", restored.Len(), st.Len())
	}
	// Close the open decisions identically on both sides first.
	for _, s := range open {
		info, err := s.Info()
		if err != nil {
			t.Fatalf("Info(%s): %v", s.ID(), err)
		}
		r, ok := restored.Get(s.ID())
		if !ok {
			t.Fatalf("open session %s missing after restore", s.ID())
		}
		if _, err := s.Reward(info.Seq, 0.75); err != nil {
			t.Fatalf("live reward %s: %v", s.ID(), err)
		}
		if _, err := r.Reward(info.Seq, 0.75); err != nil {
			t.Fatalf("restored reward %s: %v", s.ID(), err)
		}
		ids = append(ids, s.ID())
	}
	const next = 200
	for si, id := range ids {
		live, _ := st.Get(id)
		if live.Spec().Faults != "" {
			continue // fault streams restart on restore by design
		}
		got, ok := restored.Get(id)
		if !ok {
			t.Fatalf("session %s missing after restore", id)
		}
		want := goldenDrive(t, live, si, 1000, next)
		have := goldenDrive(t, got, si, 1000, next)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("session %s (%s) diverges at decision %d: live %d, restored %d",
					id, live.Spec().Algo, i, want[i], have[i])
			}
		}
	}
}
