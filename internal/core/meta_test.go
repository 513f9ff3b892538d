package core

import (
	"testing"

	"microbandit/internal/xrand"
)

func twoLows(t *testing.T, arms int) []Controller {
	t.Helper()
	mk := func(gamma float64, seed uint64) Controller {
		return MustNew(Config{
			Arms: arms, Policy: NewDUCB(0.05, gamma), Normalize: true, Seed: seed,
		})
	}
	return []Controller{mk(0.9, 1), mk(0.999, 2)}
}

var twoLabels = []string{"fast", "slow"}

func TestMetaAgentValidation(t *testing.T) {
	if _, err := NewSelector(Config{Policy: NewUCB(0.1)}, nil, nil, 3); err == nil {
		t.Error("accepted zero low-level agents")
	}
	lows := []Controller{
		MustNew(Config{Arms: 3, Policy: NewUCB(0.1), Seed: 1}),
		MustNew(Config{Arms: 4, Policy: NewUCB(0.1), Seed: 2}),
	}
	if _, err := NewSelector(Config{Policy: NewUCB(0.1)}, lows, twoLabels, 3); err == nil {
		t.Error("accepted mismatched arm counts")
	}
	if _, err := NewSelector(Config{}, twoLows(t, 3), twoLabels, 3); err == nil {
		t.Error("accepted nil high-level policy")
	}
	if _, err := NewSelector(Config{Policy: NewUCB(0.1)}, twoLows(t, 3), twoLabels[:1], 3); err == nil {
		t.Error("accepted a label count that does not match the candidates")
	}
}

func TestMetaAgentProtocol(t *testing.T) {
	m, err := NewDUCBSweepMeta(4, [][2]float64{{0.05, 0.9}, {0.05, 0.999}}, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Arms() != 4 || m.Levels() != 2 {
		t.Fatalf("Arms/Levels = %d/%d", m.Arms(), m.Levels())
	}
	if !m.InInitialRR() {
		t.Error("fresh meta agent not in RR")
	}
	arm := m.Step()
	if arm < 0 || arm >= 4 {
		t.Fatalf("arm %d out of range", arm)
	}
	if !m.StepOpen() {
		t.Error("StepOpen false between Step and Reward")
	}
	assertPanics(t, func() { m.Step() })
	m.Reward(1)
	assertPanics(t, func() { m.Reward(1) })
}

func TestMetaAgentConvergesAndSelectsBetterLevel(t *testing.T) {
	// Environment with a phase change every 300 steps: the low-gamma
	// (fast-forgetting) low-level agent should be rated better by the
	// high-level bandit than an effectively-static one. The high level
	// forgets faster (γ = 0.99) than NewDUCBSweepMeta's, so it can follow
	// the phase changes.
	fast := MustNew(Config{Arms: 3, Policy: NewDUCB(0.05, 0.95), Normalize: true, Seed: 1})
	slow := MustNew(Config{Arms: 3, Policy: NewDUCB(0.05, 0.9999999), Normalize: true, Seed: 2})
	m, err := NewSelector(Config{Policy: NewDUCB(0.05, 0.99), Normalize: true, Seed: 3},
		[]Controller{fast, slow}, twoLabels, 3)
	if err != nil {
		t.Fatal(err)
	}
	env := xrand.New(5)
	best := 0
	total := 0.0
	for step := 0; step < 6000; step++ {
		if step%300 == 0 {
			best = (best + 1) % 3
		}
		arm := m.Step()
		r := 0.2
		if arm == best {
			r = 0.9
		}
		m.Reward(r + 0.02*env.NormFloat64())
		total += r
	}
	if m.BestLevel() != 0 {
		t.Errorf("high-level bandit prefers level %d, want 0 (fast-forgetting)", m.BestLevel())
	}
	if avg := total / 6000; avg < 0.45 {
		t.Errorf("meta agent avg reward %.3f too low", avg)
	}
}

func TestMetaAgentReset(t *testing.T) {
	m, err := NewDUCBSweepMeta(3, [][2]float64{{0.05, 0.9}, {0.05, 0.999}}, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		m.Step()
		m.Reward(0.5)
	}
	m.Reset()
	if !m.InInitialRR() {
		t.Error("Reset did not restore RR phase")
	}
	if m.CurrentLevel() != 0 {
		t.Error("Reset did not clear current level")
	}
	m.Step()
	m.Reward(1)
}

func TestNewDUCBSweepMeta(t *testing.T) {
	if _, err := NewDUCBSweepMeta(4, [][2]float64{{0.05, 0.99}}, true, 1); err == nil {
		t.Error("accepted single pair")
	}
	m, err := NewDUCBSweepMeta(4, [][2]float64{{0.05, 0.9}, {0.05, 0.999}, {0.1, 0.99}}, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Levels() != 3 || m.Arms() != 4 {
		t.Errorf("Levels/Arms = %d/%d", m.Levels(), m.Arms())
	}
	want := []string{"ducb(c=0.05,gamma=0.9)", "ducb(c=0.05,gamma=0.999)", "ducb(c=0.1,gamma=0.99)"}
	for i, l := range m.Labels() {
		if l != want[i] {
			t.Errorf("label %d = %q, want %q", i, l, want[i])
		}
	}
	// It must work as a Controller end to end.
	var c Controller = m
	for i := 0; i < 200; i++ {
		arm := c.Step()
		c.Reward(float64(arm))
	}
}

func TestMetaAgentDeterministic(t *testing.T) {
	run := func() []int {
		m, err := NewDUCBSweepMeta(3, [][2]float64{{0.05, 0.9}, {0.05, 0.999}}, true, 7)
		if err != nil {
			t.Fatal(err)
		}
		env := xrand.New(9)
		var picks []int
		for i := 0; i < 300; i++ {
			arm := m.Step()
			picks = append(picks, arm)
			m.Reward(env.Float64() * float64(arm+1))
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}
