package core

import (
	"math"

	"microbandit/internal/xrand"
)

// Single is the one-shot exploration heuristic of §7.1: after the initial
// round-robin phase it locks onto the arm that performed best during that
// phase and never explores again. It has the lowest minimum performance of
// all methods in the paper because a single unlucky sample can pin a bad
// arm forever.
type Single struct {
	chosen int
}

// NewSingle returns a Single heuristic.
func NewSingle() *Single { return &Single{chosen: -1} }

// Name implements Policy.
func (p *Single) Name() string { return "Single" }

// NextArm implements Policy: the first main-loop call snapshots the best
// round-robin arm; every later call returns it unchanged.
func (p *Single) NextArm(t *Tables, _ *xrand.Rand) int {
	if p.chosen < 0 {
		p.chosen = t.BestArm()
	}
	return p.chosen
}

// UpdateSelections implements Policy.
func (p *Single) UpdateSelections(t *Tables, arm int) {
	t.N[arm]++
	t.NTotal++
}

// UpdateReward implements Policy. The running average is maintained for
// observability only — Single never revisits its choice.
func (p *Single) UpdateReward(t *Tables, arm int, rStep float64) {
	t.R[arm] += (rStep - t.R[arm]) / atLeast(t.N[arm], 1)
}

// Reset implements Policy.
func (p *Single) Reset() { p.chosen = -1 }

// Periodic is the periodic exploration heuristic of §7.1, inspired by the
// POWER7 adaptive prefetcher: it alternates between round-robin sweeps of
// all arms and exploitation of the arm with the best moving-average reward.
// The moving-average buffer smooths noisy step rewards, as in the POWER7
// design. Its exploration is non-decaying, which is why the paper finds it
// inferior to the confidence-bound algorithms.
type Periodic struct {
	// ExploitSteps is the length of each exploitation phase, in bandit
	// steps, between consecutive round-robin sweeps.
	ExploitSteps int
	// Window is the per-arm moving-average buffer length.
	Window int

	sweepIdx    int // next arm in the current sweep; == -1 when exploiting
	exploitLeft int
	exploitArm  int
	avg         []movingAvg
	sweepPrimed bool
}

// NewPeriodic returns a Periodic heuristic that exploits for exploitSteps
// steps between sweeps and smooths rewards over a window of maWindow
// samples per arm. Non-positive arguments are clamped to 1.
func NewPeriodic(exploitSteps, maWindow int) *Periodic {
	if exploitSteps < 1 {
		exploitSteps = 1
	}
	if maWindow < 1 {
		maWindow = 1
	}
	return &Periodic{ExploitSteps: exploitSteps, Window: maWindow, sweepIdx: 0}
}

// Name implements Policy.
func (p *Periodic) Name() string { return "Periodic" }

// ensure sizes the moving-average buffers to the table's arm count.
func (p *Periodic) ensure(arms int) {
	if len(p.avg) == arms {
		return
	}
	p.avg = make([]movingAvg, arms)
	for i := range p.avg {
		p.avg[i].init(p.Window)
	}
}

// NextArm implements Policy: sweep all arms round-robin, then exploit the
// best moving average for ExploitSteps steps, repeat.
func (p *Periodic) NextArm(t *Tables, _ *xrand.Rand) int {
	p.ensure(t.Arms())
	if !p.sweepPrimed {
		// Seed the moving averages with the round-robin rTable values
		// the Agent collected before the main loop began.
		for i := range p.avg {
			p.avg[i].push(t.R[i])
		}
		p.sweepPrimed = true
	}
	if p.sweepIdx >= 0 {
		arm := p.sweepIdx
		p.sweepIdx++
		if p.sweepIdx == t.Arms() {
			p.sweepIdx = -1
			p.exploitLeft = p.ExploitSteps
			p.exploitArm = p.bestAvg()
		}
		return arm
	}
	if p.exploitLeft > 0 {
		p.exploitLeft--
		if p.exploitLeft == 0 {
			p.sweepIdx = 0 // next call starts a new sweep
		}
		return p.exploitArm
	}
	// Defensive: restart a sweep.
	p.sweepIdx = 1
	return 0
}

// bestAvg returns the arm with the highest moving-average reward.
func (p *Periodic) bestAvg() int {
	best, bestV := 0, math.Inf(-1)
	for i := range p.avg {
		if v := p.avg[i].value(); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// UpdateSelections implements Policy.
func (p *Periodic) UpdateSelections(t *Tables, arm int) {
	t.N[arm]++
	t.NTotal++
}

// UpdateReward implements Policy: feed the moving-average buffer and the
// observable running average.
func (p *Periodic) UpdateReward(t *Tables, arm int, rStep float64) {
	p.ensure(t.Arms())
	p.avg[arm].push(rStep)
	t.R[arm] += (rStep - t.R[arm]) / atLeast(t.N[arm], 1)
}

// Reset implements Policy.
func (p *Periodic) Reset() {
	p.sweepIdx = 0
	p.exploitLeft = 0
	p.exploitArm = 0
	p.avg = nil
	p.sweepPrimed = false
}

// movingAvg is a tiny fixed-window moving average. core keeps its own copy
// rather than importing the stats package so the agent remains a leaf
// dependency a downstream user can vendor in isolation.
type movingAvg struct {
	buf  []float64
	next int
	n    int
	sum  float64
}

func (m *movingAvg) init(window int) { m.buf = make([]float64, window) }

func (m *movingAvg) push(x float64) {
	if m.n == len(m.buf) {
		m.sum -= m.buf[m.next]
	} else {
		m.n++
	}
	m.buf[m.next] = x
	m.sum += x
	m.next = (m.next + 1) % len(m.buf)
}

func (m *movingAvg) value() float64 {
	if m.n == 0 {
		return math.Inf(-1)
	}
	return m.sum / float64(m.n)
}

// Compile-time interface checks.
var (
	_ Policy = (*Single)(nil)
	_ Policy = (*Periodic)(nil)
)
