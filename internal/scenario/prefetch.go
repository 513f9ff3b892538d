package scenario

import (
	"microbandit/internal/cpu"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
)

// prefetchScenario wraps the paper's original use case — Table 7
// prefetcher-ensemble selection — in the generic scenario contract, so
// the classic problem and the new ones run through one experiment path
// and the lifted Tunable provably covers the original.
type prefetchScenario struct{}

// prefetchLabels renders the Table 7 arm configurations once.
var prefetchLabels = func() []string {
	arms := prefetch.Table7Arms()
	out := make([]string, len(arms))
	for i, a := range arms {
		out[i] = a.String()
	}
	return out
}()

func (prefetchScenario) Name() string { return "prefetch" }
func (prefetchScenario) Desc() string {
	return "the paper's Table 7 prefetcher-ensemble selection (classic use case)"
}
func (prefetchScenario) ArmLabels() []string { return prefetchLabels }
func (prefetchScenario) Apps() []string {
	return []string{"gcc06", "mcf06", "libquantum", "omnetpp06"}
}
func (prefetchScenario) Faults() string    { return "" }
func (prefetchScenario) Columns() []Column { return banditAndStatics(prefetchLabels) }

func (s prefetchScenario) Wire(c *cpu.Core, h *mem.Hierarchy, seed uint64) Instance {
	ens := prefetch.NewTable7Ensemble()
	return Instance{Tunable: &ensembleTunable{ens}, Pf: ens}
}

// ensembleTunable adapts prefetch.Ensemble to the scenario contract
// (it names the decision problem).
type ensembleTunable struct{ *prefetch.Ensemble }

func (t *ensembleTunable) Name() string { return "prefetch" }
