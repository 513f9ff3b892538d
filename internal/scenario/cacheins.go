package scenario

import (
	"microbandit/internal/cpu"
	"microbandit/internal/mem"
)

// cacheinsScenario: the bandit picks the LLC's insertion policy. Classic
// LRU (MRU insertion) wins when the working set fits; thrashing scans
// larger than the LLC want LIP/BIP so the scan passes through one way
// per set instead of flushing everything. The phase-structured mcf
// workloads alternate between the two regimes, so any static choice
// loses half the time. The reward probe is the LLC demand hit rate —
// the insertion policy's own objective, less noisy than end-to-end IPC.
type cacheinsScenario struct{}

var cacheinsLabels = mem.InsertPolicyNames()

// cacheinsPolicies maps arm index to the policy it installs, in
// ArmLabels order.
var cacheinsPolicies = []mem.InsertPolicy{mem.InsertMRU, mem.InsertLIP, mem.InsertBIP32, mem.InsertBIP8}

func (cacheinsScenario) Name() string { return "cacheins" }
func (cacheinsScenario) Desc() string {
	return "LLC insertion policy: LRU vs LIP/BIP insertion depth on the intrusive per-set LRU"
}
func (cacheinsScenario) ArmLabels() []string { return cacheinsLabels }
func (cacheinsScenario) Apps() []string {
	return []string{"canneal", "omnetpp06", "mcf06", "streamcluster"}
}
func (cacheinsScenario) Faults() string    { return "" }
func (cacheinsScenario) Columns() []Column { return banditAndStatics(cacheinsLabels) }

func (s cacheinsScenario) Wire(c *cpu.Core, h *mem.Hierarchy, seed uint64) Instance {
	tun := &cacheinsTunable{llc: h.LLC()}
	tun.Apply(0)
	return Instance{Tunable: tun, Probe: NewHitRateProbe(h)}
}

// cacheinsTunable switches the LLC's insertion policy.
type cacheinsTunable struct{ llc *mem.Cache }

func (t *cacheinsTunable) Name() string { return "cacheins" }
func (t *cacheinsTunable) NumArms() int { return len(cacheinsPolicies) }
func (t *cacheinsTunable) Apply(arm int) {
	t.llc.SetInsertPolicy(cacheinsPolicies[arm])
}
