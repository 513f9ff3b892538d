package microbandit_test

import (
	"fmt"

	"microbandit"
)

// ExampleAgent shows the bandit-step protocol on a deterministic
// environment: arm 2 always pays best, and DUCB finds it.
func ExampleAgent() {
	agent := microbandit.MustNew(microbandit.Config{
		Arms:      4,
		Policy:    microbandit.NewDUCB(0.05, 0.99),
		Normalize: true,
		Seed:      1,
	})
	rewards := []float64{0.2, 0.4, 0.9, 0.1}
	for step := 0; step < 200; step++ {
		arm := agent.Step()
		agent.Reward(rewards[arm])
	}
	fmt.Println("best arm:", agent.BestArm())
	// Output: best arm: 2
}

// ExampleNewPrefetchAgent builds the paper's prefetching configuration
// (Table 6) and reports its hardware storage footprint: 8 bytes per arm.
func ExampleNewPrefetchAgent() {
	agent := microbandit.NewPrefetchAgent(1)
	fmt.Println("arms:", agent.Arms())
	fmt.Println("storage bytes:", agent.Arms()*8)
	// Output:
	// arms: 11
	// storage bytes: 88
}

// ExampleNewDUCBSweepMeta demonstrates the §9 hierarchical extension: a
// high-level bandit choosing among DUCB hyperparameter variants.
func ExampleNewDUCBSweepMeta() {
	meta, err := microbandit.NewDUCBSweepMeta(6, [][2]float64{
		{0.04, 0.99},
		{0.04, 0.999},
	}, true, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	for step := 0; step < 100; step++ {
		arm := meta.Step()
		meta.Reward(float64(arm)) // higher arms pay more
	}
	fmt.Println("levels:", meta.Levels(), "arms:", meta.Arms(), "best arm:", meta.BestArm() >= 0)
	// Output: levels: 2 arms: 6 best arm: true
}
