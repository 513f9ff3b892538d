// Hierarchical example: the paper's §9 future-work extensions in action.
//
//  1. A Selector built by NewDUCBSweepMeta — a high-level bandit choosing
//     among low-level DUCB agents with different (c, γ) hyperparameters —
//     controls the prefetcher ensemble on two applications with
//     different dynamics: a phase-changing mcf-style trace (wants a
//     forgetful, low-γ agent) and a stationary stream (wants a
//     long-memory agent).
//  2. A Coordinator serializes the §4.3 exploration restarts of four
//     bandits sharing one DRAM channel.
//
// Run: go run ./examples/hierarchical
package main

import (
	"context"
	"fmt"

	"microbandit"
	"microbandit/internal/cpu"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
)

// pairs are the hyperparameter variants the high-level bandit arbitrates.
var pairs = [][2]float64{
	{microbandit.PrefetchC, 0.99},                          // forgetful
	{microbandit.PrefetchC, microbandit.PrefetchGamma},     // paper default
	{4 * microbandit.PrefetchC, microbandit.PrefetchGamma}, // explorative
}

func main() {
	fmt.Println("Part 1: hierarchical bandit (high-level DUCB over", len(pairs), "hyperparameter levels)")
	for _, appName := range []string{"mcf06", "libquantum"} {
		app, err := trace.ByName(appName)
		if err != nil {
			panic(err)
		}
		meta, err := microbandit.NewDUCBSweepMeta(microbandit.PrefetchArms, pairs, true, 11)
		if err != nil {
			panic(err)
		}
		hier := mem.NewHierarchy(mem.DefaultConfig())
		c := cpu.New(cpu.DefaultConfig(), hier, app.New(11))
		ens := prefetch.NewTable7Ensemble()
		r := cpu.NewRunner(c, ens, meta, ens)
		r.StepL2 = 400
		r.Run(2_000_000)
		p := pairs[meta.BestLevel()]
		fmt.Printf("  %-12s IPC %.3f, preferred level %d (c=%.2f, gamma=%.4f)\n",
			appName, c.IPC(), meta.BestLevel(), p[0], p[1])
	}

	fmt.Println("\nPart 2: coordinated exploration on 4 cores sharing DRAM")
	app, err := trace.ByName("ligra-pagerank")
	if err != nil {
		panic(err)
	}
	run := func(coordinated bool) float64 {
		shared := mem.NewShared(mem.DefaultConfig(), 4)
		coord := microbandit.NewCoordinator()
		var runners []*cpu.Runner
		for i := 0; i < 4; i++ {
			hier := mem.NewCoreHierarchy(mem.DefaultConfig(), shared)
			c := cpu.New(cpu.DefaultConfig(), hier, app.New(uint64(20+i)))
			ens := prefetch.NewTable7Ensemble()
			agent := microbandit.MustNew(microbandit.Config{
				Arms:          ens.NumArms(),
				Policy:        microbandit.NewDUCB(microbandit.PrefetchC, microbandit.PrefetchGamma),
				Normalize:     true,
				RRRestartProb: 0.01, // aggressive, to make coordination visible
				Seed:          uint64(30 + i),
			})
			if coordinated {
				coord.Add(agent)
			}
			r := cpu.NewRunner(c, ens, agent, ens)
			r.StepL2 = 400
			runners = append(runners, r)
		}
		cpu.RunMultiCore(context.Background(), runners, 400_000)
		return cpu.SumIPC(runners)
	}
	free := run(false)
	coordinated := run(true)
	fmt.Printf("  uncoordinated restarts: sum IPC %.3f\n", free)
	fmt.Printf("  coordinated restarts:   sum IPC %.3f\n", coordinated)
	fmt.Println("\nThe coordinator keeps sibling bandits from sweeping their arms")
	fmt.Println("simultaneously, so restart noise does not poison rewards.")
}
