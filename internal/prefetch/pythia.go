package prefetch

import (
	"microbandit/internal/xrand"
)

// Pythia (Bera et al., MICRO 2021) is the state-of-the-art MDP-RL
// prefetcher the paper compares against: it decomposes the environment
// into program-context states, keeps an action value per (state, action)
// pair — the storage the Micro-Armed Bandit eliminates — explores with
// ε-greedy, and assigns rewards based on prefetch accuracy, timeliness,
// and DRAM bandwidth usage rather than end performance.
//
// This implementation keeps Pythia's formulation: states hash a program
// feature (PC ⊕ last line delta ⊕ page offset), the action space is the
// paper's 16 offsets × 4 degrees (= 64 actions, Fig. 2) plus an explicit
// no-prefetch action, action values learn via a SARSA-style temporal
// difference with delayed accuracy rewards resolved through an evaluation
// queue, and a bandwidth-utilization input shifts rewards toward
// conservatism when the channel saturates. Table organization (vaults,
// tag hashing) is simplified to a dense table; internal/hw carries the
// published 25.5 KB storage figure.

// Pythia action space: 16 offsets × 4 degrees + no-prefetch.
var (
	pythiaOffsets = []int{-8, -6, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16}
	pythiaDegrees = []int{1, 2, 6, 12}
)

// pythiaNumActions includes the final no-prefetch action.
const pythiaNumActions = 16*4 + 1

// pythiaNumStates is the hashed state-space size.
const pythiaNumStates = 512

// Reward levels (shaped after Pythia's published reward structure).
const (
	pythiaRAccurateTimely = 12.0
	pythiaRAccurateLate   = 6.0
	pythiaRInaccurate     = -8.0
	pythiaRInaccurateHiBW = -14.0
	pythiaRNoPrefetch     = -1.0
	pythiaRNoPrefetchHiBW = 6.0
	pythiaHighBW          = 0.75 // utilization above this is "constrained"
	pythiaAlpha           = 0.15
	pythiaGammaRL         = 0.5
	pythiaEpsilon         = 0.02
)

// pythiaEQCap bounds the evaluation queue; overflowing entries resolve as
// inaccurate, oldest first.
const pythiaEQCap = 192

// Pythia is the MDP-RL prefetcher.
type Pythia struct {
	q       [][]float32 // action values [state][action]
	rng     xrand.Rand
	bwUtil  float64
	eq      evalQueue
	actHist [pythiaNumActions]int64 // selection frequency (Fig. 2 data)

	lastLine   uint64
	prevState  int
	prevAction int
	primed     bool
}

// NewPythia builds a Pythia agent with the given seed.
func NewPythia(seed uint64) *Pythia {
	p := &Pythia{rng: xrand.Seeded(seed)}
	p.q = make([][]float32, pythiaNumStates)
	for i := range p.q {
		p.q[i] = make([]float32, pythiaNumActions)
	}
	p.initOptimisticNoPrefetch()
	return p
}

// initOptimisticNoPrefetch biases fresh agents toward the no-prefetch
// action so untrained states start conservative instead of spraying the
// arbitrary action 0.
func (p *Pythia) initOptimisticNoPrefetch() {
	for i := range p.q {
		p.q[i][pythiaNumActions-1] = 0.5
	}
}

// Name implements Prefetcher.
func (p *Pythia) Name() string { return "Pythia" }

// SetBandwidthUtil implements BandwidthAware.
func (p *Pythia) SetBandwidthUtil(frac float64) { p.bwUtil = frac }

// ActionCounts returns the per-action selection counts — the measurement
// behind the paper's temporal-homogeneity motivation (Fig. 2).
func (p *Pythia) ActionCounts() []int64 {
	out := make([]int64, pythiaNumActions)
	copy(out, p.actHist[:])
	return out
}

// state hashes the program feature vector (PC ⊕ last line delta, the
// feature pair Pythia's default configuration uses) into the Q-table
// index.
func (p *Pythia) state(ev Event) int {
	line := ev.Addr >> 6
	delta := line - p.lastLine
	if delta > 63 || -delta > 63 {
		delta &= 63 // saturate wild deltas into a compact feature
	}
	h := ev.PC*0x9e3779b97f4a7c15 ^ delta*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return int(h % pythiaNumStates)
}

// action decodes an action id into (offset, degree); ok=false means the
// no-prefetch action.
func pythiaDecode(a int) (offset, degree int, ok bool) {
	if a == pythiaNumActions-1 {
		return 0, 0, false
	}
	return pythiaOffsets[a%16], pythiaDegrees[a/16], true
}

// selectAction is ε-greedy over Q[s].
func (p *Pythia) selectAction(s int) int {
	if p.rng.Bool(pythiaEpsilon) {
		return p.rng.Intn(pythiaNumActions)
	}
	best := 0
	row := p.q[s]
	for a := 1; a < pythiaNumActions; a++ {
		if row[a] > row[best] {
			best = a
		}
	}
	return best
}

// update applies a SARSA-style TD update toward reward r observed for
// (s,a), bootstrapping from the successor pair (s2,a2).
func (p *Pythia) update(s, a int, r float64, s2, a2 int) {
	target := r + pythiaGammaRL*float64(p.q[s2][a2])
	p.q[s][a] += float32(pythiaAlpha * (target - float64(p.q[s][a])))
}

// Operate implements Prefetcher.
func (p *Pythia) Operate(ev Event, buf []uint64) []uint64 {
	line := ev.Addr >> 6

	// Resolve every pending prefetch covering this demand access, oldest
	// first: accurate.
	for s := p.eq.takeLine(line); s != noSlot; s = p.eq.ring[s].next {
		e := &p.eq.ring[s]
		r := pythiaRAccurateTimely
		if ev.Cycle-e.cycle < 200 { // demanded almost immediately: late
			r = pythiaRAccurateLate
		}
		p.resolve(e, r)
	}

	s := p.state(ev)
	a := p.selectAction(s)
	p.actHist[a]++

	// SARSA bootstrap for the previous decision.
	if p.primed {
		// The previous action's accuracy reward arrives later through
		// the evaluation queue; the immediate TD step uses the action's
		// base reward (no-prefetch actions resolve immediately).
		if _, _, issued := pythiaDecode(p.prevAction); !issued {
			r := pythiaRNoPrefetch
			if p.bwUtil > pythiaHighBW {
				r = pythiaRNoPrefetchHiBW
			}
			p.update(p.prevState, p.prevAction, r, s, a)
		} else {
			p.update(p.prevState, p.prevAction, 0, s, a)
		}
	}
	p.prevState, p.prevAction, p.primed = s, a, true
	p.lastLine = line

	offset, degree, issued := pythiaDecode(a)
	if !issued {
		return buf
	}
	for d := 1; d <= degree; d++ {
		target := int64(line) + int64(offset*d)
		if target < 0 {
			continue
		}
		tl := uint64(target)
		buf = append(buf, tl*LineSize)
		if p.eq.len() >= pythiaEQCap {
			p.resolve(p.eq.popOldest(), p.inaccurateReward())
		}
		p.eq.push(tl, s, a, ev.Cycle)
	}
	return buf
}

// inaccurateReward is the penalty for a prefetch that was never demanded,
// harsher when bandwidth is scarce.
func (p *Pythia) inaccurateReward() float64 {
	if p.bwUtil > pythiaHighBW {
		return pythiaRInaccurateHiBW
	}
	return pythiaRInaccurate
}

// resolve applies the outcome reward for a removed evaluation-queue
// entry. Terminal-style update: the delayed outcome adjusts the pair
// directly.
func (p *Pythia) resolve(e *pythiaPending, r float64) {
	q := &p.q[e.state][e.action]
	*q += float32(pythiaAlpha * (r - float64(*q)))
}

// Reset implements Prefetcher.
func (p *Pythia) Reset() {
	for i := range p.q {
		for j := range p.q[i] {
			p.q[i][j] = 0
		}
	}
	p.initOptimisticNoPrefetch()
	p.eq.reset()
	p.lastLine = 0
	p.primed = false
	p.bwUtil = 0
	for i := range p.actHist {
		p.actHist[i] = 0
	}
}

// Compile-time interface checks.
var (
	_ Prefetcher     = (*Pythia)(nil)
	_ BandwidthAware = (*Pythia)(nil)
	_ Prefetcher     = (*Bingo)(nil)
	_ Prefetcher     = (*MLOP)(nil)
)
