package simsmt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRewardModeString(t *testing.T) {
	want := map[RewardMode]string{
		RewardSumIPC: "sum-ipc", RewardWeightedIPC: "weighted-ipc",
		RewardHarmonicWeighted: "harmonic-weighted", RewardMode(9): "reward(9)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func TestRewardMetrics(t *testing.T) {
	ipc := [2]float64{1.0, 0.5}
	solo := [2]float64{2.0, 1.0}
	if got := RewardSumIPC.Reward(ipc, solo); got != 1.5 {
		t.Errorf("sum = %v", got)
	}
	// weighted: (0.5 + 0.5)/2 = 0.5
	if got := RewardWeightedIPC.Reward(ipc, solo); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("weighted = %v", got)
	}
	// harmonic of equal weights equals the weights
	if got := RewardHarmonicWeighted.Reward(ipc, solo); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("harmonic = %v", got)
	}
	// Unequal weights: harmonic < arithmetic.
	ipc2 := [2]float64{1.8, 0.1}
	h := RewardHarmonicWeighted.Reward(ipc2, solo)
	w := RewardWeightedIPC.Reward(ipc2, solo)
	if h >= w {
		t.Errorf("harmonic %v not below arithmetic %v for unfair split", h, w)
	}
	// Zero solo baselines degrade gracefully.
	if got := RewardWeightedIPC.Reward(ipc, [2]float64{}); got != 0 {
		t.Errorf("weighted with zero solo = %v", got)
	}
	if got := RewardHarmonicWeighted.Reward(ipc, [2]float64{}); got != 0 {
		t.Errorf("harmonic with zero solo = %v", got)
	}
}

func TestDisableThread(t *testing.T) {
	p1 := mustProfile(t, "gcc")
	p2 := mustProfile(t, "leela")
	sim := NewSim(p1, p2, 3)
	sim.DisableThread(1)
	sim.RunCycles(30_000)
	if sim.Committed(1) != 0 {
		t.Errorf("disabled thread committed %d uops", sim.Committed(1))
	}
	if sim.Committed(0) == 0 {
		t.Error("enabled thread committed nothing")
	}
}

func TestSoloIPCExceedsSMTShare(t *testing.T) {
	p := mustProfile(t, "gcc")
	solo := SoloIPC(p, 3, 60_000)
	if solo <= 0 {
		t.Fatal("solo IPC non-positive")
	}
	// Under SMT with a sibling, the thread gets less than its solo IPC.
	sim := NewSim(p, mustProfile(t, "lbm"), 3)
	sim.RunCycles(60_000)
	smtIPC := float64(sim.Committed(0)) / float64(sim.Cycle())
	if smtIPC >= solo {
		t.Errorf("SMT IPC %.3f not below solo %.3f", smtIPC, solo)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	a, b := mustProfile(t, "gcc"), mustProfile(t, "lbm")
	solo := [2]float64{SoloIPC(a, 1, 40_000), SoloIPC(b, 2, 40_000)}
	sim := NewSim(a, b, 5)
	sim.RunCycles(40_000)
	m := Evaluate(sim, solo)
	if m.SumIPC <= 0 || m.Weighted <= 0 || m.Harmonic <= 0 {
		t.Fatalf("metrics non-positive: %+v", m)
	}
	if m.Fairness <= 0 || m.Fairness > 1 {
		t.Errorf("fairness = %v outside (0,1]", m.Fairness)
	}
	if m.Harmonic > m.Weighted+1e-12 {
		t.Errorf("harmonic %v exceeds arithmetic %v", m.Harmonic, m.Weighted)
	}
	if got := m.PerThread[0] + m.PerThread[1]; math.Abs(got-m.SumIPC) > 1e-12 {
		t.Errorf("per-thread IPCs inconsistent with sum")
	}
	// Degenerate zero-cycle sim.
	if z := Evaluate(NewSim(a, b, 1), solo); z.SumIPC != 0 {
		t.Error("zero-cycle Evaluate non-zero")
	}
}

func TestRunnerWithWeightedReward(t *testing.T) {
	a, b := mustProfile(t, "mcf"), mustProfile(t, "lbm")
	solo := [2]float64{SoloIPC(a, 1, 30_000), SoloIPC(b, 2, 30_000)}
	sim := NewSim(a, b, 7)
	agent := NewBanditAgent(3)
	r := NewRunner(sim, agent, Table1Arms(), true)
	r.EpochLen = 2048
	r.RREpochs = 2
	r.MainEpochs = 1
	r.Reward = RewardHarmonicWeighted
	r.Solo = solo
	r.RunCycles(300_000)
	if agent.StepsTaken() < 10 {
		t.Fatalf("only %d steps", agent.StepsTaken())
	}
	// Rewards are harmonic weighted speedups: the agent's learned values
	// must lie in a plausible normalized band (normalization makes the
	// mean ~1).
	for _, rv := range agent.Rewards() {
		if rv < 0 || rv > 5 {
			t.Errorf("implausible learned reward %v", rv)
		}
	}
}

// Property: harmonic mean never exceeds arithmetic mean of the weights.
func TestQuickHarmonicLEWeighted(t *testing.T) {
	f := func(i0, i1, s0, s1 uint16) bool {
		ipc := [2]float64{float64(i0)/1000 + 0.001, float64(i1)/1000 + 0.001}
		solo := [2]float64{float64(s0)/1000 + 0.001, float64(s1)/1000 + 0.001}
		h := RewardHarmonicWeighted.Reward(ipc, solo)
		w := RewardWeightedIPC.Reward(ipc, solo)
		return h <= w+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestARPAPartitionsTowardEfficientThread(t *testing.T) {
	a := NewARPA()
	if a.Share() != 0.5 {
		t.Fatal("ARPA must start at an even split")
	}
	// exchange2 (cache-resident, efficient) vs mcf (ROB-clogging): ARPA
	// should shift share toward the efficient thread.
	p0 := mustProfile(t, "exchange2")
	p1 := mustProfile(t, "mcf")
	r := NewARPARunner(NewSim(p0, p1, 3), mustPolicy("IC_1111"))
	r.ARPA = a
	r.EpochLen = 8192
	r.RunCycles(400_000)
	if a.Share() <= 0.55 {
		t.Errorf("share = %.3f; expected shift toward the efficient thread", a.Share())
	}
	// Reset restores the even split.
	a.Reset()
	if a.Share() != 0.5 {
		t.Error("Reset did not restore 0.5")
	}
}

func TestARPAStableOnSymmetricMix(t *testing.T) {
	p := mustProfile(t, "gcc")
	sim := NewSim(p, p, 5)
	sim.SetPolicy(mustPolicy("IC_1111"))
	r := NewARPARunner(sim, mustPolicy("IC_1111"))
	r.EpochLen = 8192
	r.RunCycles(400_000)
	if s := r.ARPA.Share(); s < 0.4 || s > 0.6 {
		t.Errorf("symmetric mix drifted to share %.3f", s)
	}
}

func TestOccupancyIntegralMonotone(t *testing.T) {
	sim := NewSim(mustProfile(t, "mcf"), mustProfile(t, "lbm"), 1)
	sim.RunCycles(10_000)
	a0 := sim.OccupancyIntegral(0)
	sim.RunCycles(10_000)
	if sim.OccupancyIntegral(0) < a0 {
		t.Error("occupancy integral decreased")
	}
	if sim.OccupancyIntegral(0) == 0 && sim.OccupancyIntegral(1) == 0 {
		t.Error("no occupancy ever recorded")
	}
}
