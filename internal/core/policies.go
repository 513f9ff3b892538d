package core

import (
	"math"

	"microbandit/internal/xrand"
)

// The free functions below are the single implementation of every
// built-in policy's arithmetic. Each Policy method delegates to one of
// them, and Agent's devirtualized fast path (core.go) calls the same
// functions directly, so the two dispatch routes are bit-identical by
// construction rather than by testing alone.

// countSelect is the shared updSels of the non-discounting policies:
// n_arm++ and n_total++.
func countSelect(t *Tables, arm int) {
	t.N[arm]++
	t.NTotal++
}

// discountSelect is DUCB's updSels (Table 3c): discount every n_i by γ,
// then increment the selected arm. NTotal is maintained as the sum of
// the discounted counts.
func discountSelect(t *Tables, gamma float64, arm int) {
	total := 0.0
	for i := range t.N {
		t.N[i] *= gamma
		total += t.N[i]
	}
	t.N[arm]++
	t.NTotal = total + 1
}

// foldReward is the shared updRew: fold r_step into the running average,
// r_arm += (r_step - r_arm) / max(n_arm, 1).
func foldReward(t *Tables, arm int, rStep float64) {
	t.R[arm] += (rStep - t.R[arm]) / atLeast(t.N[arm], 1)
}

// atLeast returns max(x, floor) for a positive floor. It equals
// math.Max(x, floor) for every x, NaN included (NaN < floor is false),
// but compiles to an inline compare; on amd64 math.Max is an
// out-of-line assembly call on the agents' per-decision path.
func atLeast(x, floor float64) float64 {
	if x < floor {
		return floor
	}
	return x
}

// epsNextArm is ε-Greedy's nextArm: argmax r_i with probability 1-ε,
// else a uniformly random arm.
func epsNextArm(t *Tables, epsilon float64, rng *xrand.Rand) int {
	if rng.Bool(epsilon) {
		return rng.Intn(t.Arms())
	}
	return t.BestArm()
}

// EpsilonGreedy is the simplest MAB algorithm (Table 3a): with probability
// 1-ε it exploits the arm with the highest average reward, with
// probability ε it explores a uniformly random arm. Exploration is
// randomized and non-decaying — the two shortcomings UCB addresses.
type EpsilonGreedy struct {
	// Epsilon is the exploration probability in [0,1].
	Epsilon float64
}

// NewEpsilonGreedy returns an ε-Greedy policy.
func NewEpsilonGreedy(epsilon float64) *EpsilonGreedy {
	return &EpsilonGreedy{Epsilon: epsilon}
}

// Name implements Policy.
func (p *EpsilonGreedy) Name() string { return "eps-Greedy" }

// NextArm implements Policy: argmax r_i with probability 1-ε, else random.
func (p *EpsilonGreedy) NextArm(t *Tables, rng *xrand.Rand) int {
	return epsNextArm(t, p.Epsilon, rng)
}

// UpdateSelections implements Policy: n_arm++ and n_total++.
func (p *EpsilonGreedy) UpdateSelections(t *Tables, arm int) {
	countSelect(t, arm)
}

// UpdateReward implements Policy: fold r_step into the running average,
// r_arm += (r_step - r_arm) / n_arm.
func (p *EpsilonGreedy) UpdateReward(t *Tables, arm int, rStep float64) {
	foldReward(t, arm, rStep)
}

// Reset implements Policy (ε-Greedy is stateless).
func (p *EpsilonGreedy) Reset() {}

// UCB is the Upper Confidence Bound algorithm (Table 3b). The next arm is
// the one with the highest potential r_i + c*sqrt(ln(n_total)/n_i): arms
// that have been tried rarely receive a large exploration bonus, and the
// bonus decays as evidence accumulates, fixing ε-Greedy's randomized,
// non-decaying exploration.
type UCB struct {
	// C is the exploration constant.
	C float64
}

// NewUCB returns a UCB policy with exploration constant c.
func NewUCB(c float64) *UCB { return &UCB{C: c} }

// Name implements Policy.
func (p *UCB) Name() string { return "UCB" }

// argmaxPotential returns the arm with the highest UCB potential
// r_i + c*sqrt(ln(n_total)/n_i).
func argmaxPotential(t *Tables, c float64) int {
	best, bestP := 0, math.Inf(-1)
	lnTotal := math.Log(atLeast(t.NTotal, 1))
	for i := range t.R {
		p := t.R[i] + c*math.Sqrt(lnTotal/atLeast(t.N[i], minCount))
		if p > bestP {
			best, bestP = i, p
		}
	}
	return best
}

// NextArm implements Policy: the arm with the highest potential.
func (p *UCB) NextArm(t *Tables, _ *xrand.Rand) int {
	return argmaxPotential(t, p.C)
}

// UpdateSelections implements Policy (same as ε-Greedy).
func (p *UCB) UpdateSelections(t *Tables, arm int) {
	countSelect(t, arm)
}

// UpdateReward implements Policy (same as ε-Greedy).
func (p *UCB) UpdateReward(t *Tables, arm int, rStep float64) {
	foldReward(t, arm, rStep)
}

// Reset implements Policy (UCB is stateless).
func (p *UCB) Reset() {}

// DUCB is the Discounted Upper Confidence Bound algorithm (Table 3c),
// the paper's choice for the Bandit agent. It shares nextArm and updRew
// with UCB but discounts all selection counts by γ < 1 in updSels, so the
// agent forgets stale evidence: rarely selected arms regain exploration
// bonus over time and the agent adapts to non-stationary workloads
// (program phase changes).
type DUCB struct {
	// C is the exploration constant.
	C float64
	// Gamma is the forgetting factor in (0,1).
	Gamma float64
}

// NewDUCB returns a DUCB policy with exploration constant c and forgetting
// factor gamma.
func NewDUCB(c, gamma float64) *DUCB { return &DUCB{C: c, Gamma: gamma} }

// Name implements Policy.
func (p *DUCB) Name() string { return "DUCB" }

// NextArm implements Policy: same selection rule as UCB.
func (p *DUCB) NextArm(t *Tables, _ *xrand.Rand) int {
	return argmaxPotential(t, p.C)
}

// UpdateSelections implements Policy: discount every n_i by γ, then
// increment the selected arm. NTotal is maintained as the sum of the
// discounted counts.
func (p *DUCB) UpdateSelections(t *Tables, arm int) {
	discountSelect(t, p.Gamma, arm)
}

// UpdateReward implements Policy: same running-average fold as UCB, but
// over the discounted count, which asymptotically behaves as an
// exponentially weighted average with window ~1/(1-γ).
func (p *DUCB) UpdateReward(t *Tables, arm int, rStep float64) {
	foldReward(t, arm, rStep)
}

// Reset implements Policy (DUCB is stateless).
func (p *DUCB) Reset() {}

// Compile-time interface checks.
var (
	_ Policy = (*EpsilonGreedy)(nil)
	_ Policy = (*UCB)(nil)
	_ Policy = (*DUCB)(nil)
)
