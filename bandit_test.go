package microbandit_test

import (
	"testing"

	"microbandit"
	"microbandit/internal/xrand"
)

// TestFacadeQuickstart exercises the public API exactly as README's
// quickstart does: a DUCB agent on a noisy stationary environment.
func TestFacadeQuickstart(t *testing.T) {
	agent := microbandit.MustNew(microbandit.Config{
		Arms:      4,
		Policy:    microbandit.NewDUCB(0.05, 0.99),
		Normalize: true,
		Seed:      1,
	})
	env := xrand.New(2)
	means := []float64{0.2, 0.7, 0.4, 0.1}
	picks := make([]int, 4)
	for step := 0; step < 1500; step++ {
		arm := agent.Step()
		picks[arm]++
		agent.Reward(means[arm] + 0.05*env.NormFloat64())
	}
	if best := agent.BestArm(); best != 1 {
		t.Errorf("BestArm = %d, want 1", best)
	}
	if picks[1] < 1000 {
		t.Errorf("best arm picked only %d/1500 times", picks[1])
	}
}

func TestPaperAgentsMatchTable6(t *testing.T) {
	pf := microbandit.NewPrefetchAgent(1)
	if pf.Arms() != 11 {
		t.Errorf("prefetch agent arms = %d, want 11", pf.Arms())
	}
	smt := microbandit.NewSMTAgent(1)
	if smt.Arms() != 6 {
		t.Errorf("SMT agent arms = %d, want 6", smt.Arms())
	}
	// Both start in the initial round-robin phase of Algorithm 1.
	if !pf.InInitialRR() || !smt.InInitialRR() {
		t.Error("fresh agents must be in the initial RR phase")
	}
}

func TestFacadeConstants(t *testing.T) {
	if microbandit.PrefetchGamma != 0.999 || microbandit.PrefetchC != 0.04 {
		t.Error("prefetch hyperparameters do not match Table 6")
	}
	if microbandit.SMTGamma != 0.975 || microbandit.SMTC != 0.01 {
		t.Error("SMT hyperparameters do not match Table 6")
	}
}

func TestFacadeControllers(t *testing.T) {
	var c microbandit.Controller = microbandit.FixedArm(3)
	if c.Step() != 3 {
		t.Error("FixedArm broken through the facade")
	}
	var _ microbandit.Policy = microbandit.NewSingle()
	var _ microbandit.Policy = microbandit.NewPeriodic(4, 4)
	var _ microbandit.Policy = microbandit.NewEpsilonGreedy(0.1)
	var _ microbandit.Policy = microbandit.NewUCB(0.1)
}

// newBenchAgent builds the 11-arm paper-default agent used by
// BenchmarkAgentStep.
func newBenchAgent() *microbandit.Agent {
	return microbandit.NewPrefetchAgent(1)
}
