package core

import (
	"fmt"
	"testing"
)

// TestResetEquivalentToFresh is the Reset contract: after Reset, an agent
// must behave step-for-step identically to a freshly constructed agent
// with the same config and seed — same arm choices, same learned tables,
// same normalization constant, same restart count, same recorded trace.
// The pre-reset history varies so Reset is exercised from the initial
// round-robin phase, the main loop, and mid-step.
func TestResetEquivalentToFresh(t *testing.T) {
	for name, mk := range snapshotPolicies() {
		for _, history := range []int{0, 2, 30} {
			t.Run(fmt.Sprintf("%s/history%d", name, history), func(t *testing.T) {
				cfg := Config{
					Arms: 4, Policy: mk(), Normalize: true,
					RRRestartProb: 0.05, Seed: 123, RecordTrace: true,
				}
				reset := MustNew(cfg)
				drive(reset, 0, history)
				if history > 0 {
					// Reset mid-step too: a pending Step must not leak.
					reset.Step()
				}
				reset.Reset()

				freshCfg := cfg
				freshCfg.Policy = mk()
				fresh := MustNew(freshCfg)

				compareStepForStep(t, reset, fresh, 150)
			})
		}
	}
}

// TestMetaResetEquivalentToFresh is the same contract for the
// hierarchical agent: every level, the switch state, and the high-level
// selector must rewind.
func TestMetaResetEquivalentToFresh(t *testing.T) {
	pairs := [][2]float64{{0.04, 0.999}, {0.01, 0.975}}
	build := func() *Selector {
		m, err := NewDUCBSweepMeta(3, pairs, true, 99)
		if err != nil {
			t.Fatalf("NewDUCBSweepMeta: %v", err)
		}
		return m
	}
	reset := build()
	drive(reset, 0, 40)
	reset.Step()
	reset.Reset()
	fresh := build()

	for i := 0; i < 150; i++ {
		ra, fa := reset.Step(), fresh.Step()
		if ra != fa {
			t.Fatalf("step %d: reset meta chose arm %d, fresh chose %d", i, ra, fa)
		}
		if reset.CurrentLevel() != fresh.CurrentLevel() {
			t.Fatalf("step %d: reset meta level %d, fresh level %d", i, reset.CurrentLevel(), fresh.CurrentLevel())
		}
		r := stepReward(ra, i)
		reset.Reward(r)
		fresh.Reward(r)
	}
}

// compareStepForStep drives both agents through n identical steps and
// fails on the first observable divergence.
func compareStepForStep(t *testing.T, a, b *Agent, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		aa, ba := a.Step(), b.Step()
		if aa != ba {
			t.Fatalf("step %d: arms diverge (%d vs %d)", i, aa, ba)
		}
		r := stepReward(aa, i)
		a.Reward(r)
		b.Reward(r)
		if a.RAvg() != b.RAvg() {
			t.Fatalf("step %d: rAvg diverges (%v vs %v)", i, a.RAvg(), b.RAvg())
		}
		if a.Restarts() != b.Restarts() {
			t.Fatalf("step %d: restart counts diverge (%d vs %d)", i, a.Restarts(), b.Restarts())
		}
	}
	if got, want := a.Rewards(), b.Rewards(); !equalF64(got, want) {
		t.Fatalf("rTable diverges: %v vs %v", got, want)
	}
	if got, want := a.Counts(), b.Counts(); !equalF64(got, want) {
		t.Fatalf("nTable diverges: %v vs %v", got, want)
	}
	at, bt := a.Trace(), b.Trace()
	if len(at) != len(bt) {
		t.Fatalf("trace lengths diverge: %d vs %d", len(at), len(bt))
	}
	for i := range at {
		if at[i] != bt[i] {
			t.Fatalf("trace entry %d diverges: %d vs %d", i, at[i], bt[i])
		}
	}
}
