package scenario

import (
	"fmt"

	"microbandit/internal/cpu"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
)

// pfdegreeScenario: the bandit throttles a stream prefetcher's degree
// under DRAM bandwidth collapse. The scenario's fault set includes
// bwcollapse (it is the problem statement, not a perturbation): during
// collapsed windows the channel streams lines 8x slower, so aggressive
// prefetching steals bandwidth from demand misses and degree 0/1 wins;
// in clean windows degree 4 wins. The window pattern is unpredictable,
// so no static degree is right for the whole run.
type pfdegreeScenario struct{}

var pfdegreeLabels = []string{"off", "deg1", "deg2", "deg4"}

// pfdegreeDegrees maps arm index to the stream degree it programs.
var pfdegreeDegrees = []int{0, 1, 2, 4}

func (pfdegreeScenario) Name() string { return "pfdegree" }
func (pfdegreeScenario) Desc() string {
	return "prefetch-degree throttling (stream degree 0/1/2/4) under DRAM bandwidth collapse"
}
func (pfdegreeScenario) ArmLabels() []string { return pfdegreeLabels }
func (pfdegreeScenario) Apps() []string {
	return []string{"libquantum", "lbm17", "streamcluster", "mcf17"}
}
func (pfdegreeScenario) Faults() string    { return "bwcollapse:0.5" }
func (pfdegreeScenario) Columns() []Column { return banditAndStatics(pfdegreeLabels) }

func (s pfdegreeScenario) Wire(c *cpu.Core, h *mem.Hierarchy, seed uint64) Instance {
	tun := newDegreeThrottle()
	return Instance{Tunable: tun, Probe: NewIPCProbe(c), Pf: tun}
}

// degreeThrottle is a stream prefetcher whose arms are prefetch
// degrees. It embeds prefetch.Stream for Operate/Reset and shadows
// Name; degree 0 disables issuing (the Stream contract).
type degreeThrottle struct {
	*prefetch.Stream
}

// newDegreeThrottle builds the throttled stream prefetcher with the
// ensemble's tracker budget, starting at arm 0 (off).
func newDegreeThrottle() *degreeThrottle {
	return &degreeThrottle{Stream: prefetch.NewStream(64, pfdegreeDegrees[0])}
}

func (t *degreeThrottle) Name() string { return "pfdegree" }
func (t *degreeThrottle) NumArms() int { return len(pfdegreeDegrees) }
func (t *degreeThrottle) Apply(arm int) {
	if arm < 0 || arm >= len(pfdegreeDegrees) {
		panic(fmt.Sprintf("scenario: pfdegree arm %d out of range", arm))
	}
	t.Stream.Degree = pfdegreeDegrees[arm]
}

// compile-time checks: the throttle is both a scenario tunable and a
// prefetcher.
var (
	_ Tunable             = (*degreeThrottle)(nil)
	_ prefetch.Prefetcher = (*degreeThrottle)(nil)
)
