package cpu

import "context"

// multiCoreBatch is how many instructions the chosen core runs per
// RunMultiCore selection; ctx is checked before each batch.
const multiCoreBatch = 64

// RunMultiCore co-simulates several runners that share an LLC and a DRAM
// channel until every core has executed instsPerCore instructions (§6.2's
// four-core methodology). Cores advance in timestamp order — always the
// core with the smallest local cycle steps next — so contention on the
// shared resources is observed in (approximately) global time order.
//
// Once ctx is done the co-simulation stops before the next batch and
// returns ctx's error; every core's statistics stay valid for the
// instructions it did run.
func RunMultiCore(ctx context.Context, runners []*Runner, instsPerCore int64) error {
	if len(runners) == 0 {
		return nil
	}
	// Prime the bandit controllers before interleaving.
	for _, r := range runners {
		r.Run(0)
	}
	done := ctx.Done()
	for {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		var next *Runner
		for _, r := range runners {
			if r.Core.Insts() >= instsPerCore {
				continue
			}
			if next == nil || r.Core.cycle < next.Core.cycle {
				next = r
			}
		}
		if next == nil {
			return nil
		}
		// Step a small batch to amortize the selection scan.
		budget := instsPerCore - next.Core.Insts()
		if budget > multiCoreBatch {
			budget = multiCoreBatch
		}
		next.Core.RunInsts(budget)
	}
}

// SumIPC returns the sum of the runners' IPCs — the multi-core performance
// metric the paper reports (§6.4).
func SumIPC(runners []*Runner) float64 {
	total := 0.0
	for _, r := range runners {
		total += r.Core.IPC()
	}
	return total
}
