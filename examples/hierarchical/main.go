// Hierarchical example: the paper's §9 future-work extension in action.
// A Selector built by NewDUCBSweepMeta — a high-level bandit choosing
// among low-level DUCB agents with different (c, γ) hyperparameters —
// controls the prefetcher ensemble on two applications with different
// dynamics: a phase-changing mcf-style trace (wants a forgetful, low-γ
// agent) and a stationary stream (wants a long-memory agent).
//
// Run: go run ./examples/hierarchical
package main

import (
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
	fmt.Println("Hierarchical bandit (high-level DUCB over", len(pairs), "hyperparameter levels)")
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
}
