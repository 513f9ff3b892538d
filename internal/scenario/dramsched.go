package scenario

import (
	"microbandit/internal/cpu"
	"microbandit/internal/mem"
)

// dramschedScenario: the bandit picks the DRAM channel's scheduling /
// row-buffer policy. Streaming workloads have high row locality and
// want open-page FCFS; pointer chases touch a fresh row per access and
// want close-page's flat activate cost; FR-FCFS open-page wins when
// requests queue with mixed locality. No static policy wins across —
// or even within — the phase-structured workloads, which is exactly the
// gap a per-step learner closes.
type dramschedScenario struct{}

var dramschedLabels = mem.SchedPolicyNames()

// dramschedPolicies maps arm index to the policy it installs, in
// ArmLabels order.
var dramschedPolicies = []mem.SchedPolicy{mem.SchedFCFSOpen, mem.SchedFCFSClose, mem.SchedFRFCFSOpen}

func (dramschedScenario) Name() string { return "dramsched" }
func (dramschedScenario) Desc() string {
	return "DRAM scheduling policy: FCFS open/close page + FR-FCFS reordering over the bandwidth-limited channel"
}
func (dramschedScenario) ArmLabels() []string { return dramschedLabels }
func (dramschedScenario) Apps() []string {
	return []string{"libquantum", "lbm06", "omnetpp06", "mcf06"}
}
func (dramschedScenario) Faults() string    { return "" }
func (dramschedScenario) Columns() []Column { return banditAndStatics(dramschedLabels) }

func (s dramschedScenario) Wire(c *cpu.Core, h *mem.Hierarchy, seed uint64) Instance {
	tun := &dramTunable{d: h.DRAM()}
	tun.Apply(0)
	return Instance{Tunable: tun, Probe: NewIPCProbe(c)}
}

// dramTunable switches the channel's scheduling policy.
type dramTunable struct{ d *mem.DRAM }

func (t *dramTunable) Name() string { return "dramsched" }
func (t *dramTunable) NumArms() int { return len(dramschedPolicies) }
func (t *dramTunable) Apply(arm int) {
	t.d.SetSchedPolicy(dramschedPolicies[arm])
}
