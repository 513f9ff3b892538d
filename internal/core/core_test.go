package core

import (
	"math"
	"reflect"
	"testing"

	"microbandit/internal/xrand"
)

func ducbConfig(seed uint64, arms int) Config {
	return Config{
		Arms:      arms,
		Policy:    NewDUCB(PrefetchC, PrefetchGamma),
		Normalize: true,
		Seed:      seed,
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Arms: 3, Policy: NewUCB(0.1)}, true},
		{"no arms", Config{Arms: 0, Policy: NewUCB(0.1)}, false},
		{"nil policy", Config{Arms: 3}, false},
		{"bad restart prob", Config{Arms: 3, Policy: NewUCB(0.1), RRRestartProb: 1.5}, false},
		{"negative restart prob", Config{Arms: 3, Policy: NewUCB(0.1), RRRestartProb: -0.1}, false},
	}
	for _, c := range cases {
		_, err := New(c.cfg)
		if (err == nil) != c.ok {
			t.Errorf("%s: New err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with invalid config did not panic")
		}
	}()
	MustNew(Config{})
}

// The initial round-robin phase must try every arm exactly once, in order,
// and seed the tables per Algorithm 1 lines 3-10.
func TestInitialRoundRobinPhase(t *testing.T) {
	const arms = 5
	a := MustNew(Config{Arms: arms, Policy: NewDUCB(0.04, 0.999), Seed: 1})
	for i := 0; i < arms; i++ {
		if !a.InInitialRR() {
			t.Fatalf("step %d: InInitialRR = false during RR phase", i)
		}
		arm := a.Step()
		if arm != i {
			t.Fatalf("RR step %d selected arm %d", i, arm)
		}
		a.Reward(float64(i + 1)) // distinct rewards 1..5
	}
	if a.InInitialRR() {
		t.Fatal("InInitialRR still true after RR phase")
	}
	n := a.Counts()
	r := a.Rewards()
	for i := 0; i < arms; i++ {
		if n[i] != 1 {
			t.Errorf("n[%d] = %v, want 1", i, n[i])
		}
	}
	// Without normalization, r_i equals the seeded reward.
	a2 := MustNew(Config{Arms: 3, Policy: NewUCB(0.1), Seed: 1})
	for i := 0; i < 3; i++ {
		a2.Step()
		a2.Reward(float64(10 * (i + 1)))
	}
	r2 := a2.Rewards()
	if r2[0] != 10 || r2[1] != 20 || r2[2] != 30 {
		t.Errorf("seeded rewards = %v", r2)
	}
	_ = r
}

func TestStepRewardProtocol(t *testing.T) {
	a := MustNew(Config{Arms: 2, Policy: NewUCB(0.1), Seed: 1})
	a.Step()
	assertPanics(t, func() { a.Step() })
	a.Reward(1)
	assertPanics(t, func() { a.Reward(1) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// After the RR phase, normalization divides the rTable by the average
// initial reward, so the mean rTable entry becomes 1.
func TestNormalizationRescalesTables(t *testing.T) {
	a := MustNew(ducbConfig(1, 4))
	rewards := []float64{0.1, 0.2, 0.3, 0.4}
	for _, r := range rewards {
		a.Step()
		a.Reward(r)
	}
	if got, want := a.RAvg(), 0.25; !close(got, want) {
		t.Fatalf("rAvg = %v, want %v", got, want)
	}
	r := a.Rewards()
	sum := 0.0
	for _, v := range r {
		sum += v
	}
	if mean := sum / 4; !close(mean, 1) {
		t.Errorf("normalized rTable mean = %v, want 1", mean)
	}
	if !close(r[3], 1.6) {
		t.Errorf("r[3] = %v, want 1.6", r[3])
	}
}

func TestNormalizationDegenerateAverage(t *testing.T) {
	a := MustNew(ducbConfig(1, 3))
	for i := 0; i < 3; i++ {
		a.Step()
		a.Reward(0) // all-zero rewards: average is 0
	}
	if a.RAvg() != 1 {
		t.Errorf("degenerate rAvg = %v, want fallback 1", a.RAvg())
	}
	// The agent must keep operating.
	a.Step()
	a.Reward(0.5)
}

// TestNormalizationAllZeroRRPhase is the §4.3 division-guard regression
// test: a fault (stuck arm, collapsed bandwidth) can zero every reward
// of the initial round-robin phase, making the round-robin average 0.
// The agent must fall back to unnormalized rewards — every learned
// value stays finite and the post-RR rewards pass through unscaled.
func TestNormalizationAllZeroRRPhase(t *testing.T) {
	a := MustNew(ducbConfig(7, 4))
	for i := 0; i < 4; i++ {
		a.Step()
		a.Reward(0)
	}
	// Recovery: rewards return; with rAvg pinned to 1 they must reach
	// the tables unnormalized.
	post := []float64{0.5, 1.25, 2.0, 0.75}
	for _, r := range post {
		arm := a.Step()
		a.Reward(r)
		for _, v := range append(a.Rewards(), a.Counts()...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite table value %v after rewarding arm %d with %v", v, arm, r)
			}
		}
	}
	if got := a.RAvg(); got != 1 {
		t.Errorf("rAvg = %v, want fallback 1 after all-zero RR phase", got)
	}

	// Belt and braces: even if rAvg is corrupted after normalization
	// completes, normalizeReward must refuse to divide by it.
	for _, bad := range []float64{0, -2, math.NaN(), math.Inf(1)} {
		a.rAvg = bad
		if got := a.normalizeReward(3); got != 3 {
			t.Errorf("normalizeReward(3) with rAvg=%v = %v, want passthrough 3", bad, got)
		}
	}
}

// The paper's motivation for normalization: with it, scaling all rewards
// by any positive constant leaves the entire selection sequence unchanged.
func TestNormalizationScaleInvariance(t *testing.T) {
	run := func(scale float64) []int {
		a := MustNew(Config{
			Arms:        4,
			Policy:      NewDUCB(0.04, 0.99),
			Normalize:   true,
			Seed:        7,
			RecordTrace: true,
		})
		env := xrand.New(99)
		means := []float64{0.3, 0.5, 0.2, 0.4}
		for s := 0; s < 400; s++ {
			arm := a.Step()
			r := means[arm] + 0.05*env.NormFloat64()
			if r < 0.01 {
				r = 0.01
			}
			a.Reward(r * scale)
		}
		return a.Trace()
	}
	base := run(1)
	for _, scale := range []float64{0.05, 20} {
		got := run(scale)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("scale %v: trace diverged at step %d (%d vs %d)",
					scale, i, got[i], base[i])
			}
		}
	}
}

// Without normalization, low-reward environments explore more under the
// same exploration constant — the unwanted effect §4.3 describes.
func TestWithoutNormalizationScaleChangesExploration(t *testing.T) {
	distinctArms := func(scale float64, normalize bool) int {
		a := MustNew(Config{
			Arms:        4,
			Policy:      NewUCB(0.05),
			Normalize:   normalize,
			Seed:        7,
			RecordTrace: true,
		})
		means := []float64{0.3, 0.5, 0.2, 0.4}
		for s := 0; s < 300; s++ {
			arm := a.Step()
			a.Reward(means[arm] * scale)
		}
		// Count exploration steps after RR: how often a non-best arm was picked.
		nonBest := 0
		for _, arm := range a.Trace()[4:] {
			if arm != 1 {
				nonBest++
			}
		}
		return nonBest
	}
	lowIPC := distinctArms(0.01, false)
	highIPC := distinctArms(10, false)
	if lowIPC <= highIPC {
		t.Errorf("without normalization: low-scale explored %d vs high-scale %d; expected more exploration at low scale",
			lowIPC, highIPC)
	}
	lowN := distinctArms(0.01, true)
	highN := distinctArms(10, true)
	if lowN != highN {
		t.Errorf("with normalization: exploration differs (%d vs %d)", lowN, highN)
	}
}

// Stationary convergence: every bandit algorithm should mostly select the
// best arm on a stationary environment after warm-up.
func TestStationaryConvergence(t *testing.T) {
	policies := map[string]func() Policy{
		"eps-greedy": func() Policy { return NewEpsilonGreedy(0.05) },
		"ucb":        func() Policy { return NewUCB(0.05) },
		"ducb":       func() Policy { return NewDUCB(0.05, 0.999) },
	}
	means := []float64{0.2, 0.9, 0.4, 0.1, 0.5}
	for name, mk := range policies {
		a := MustNew(Config{Arms: 5, Policy: mk(), Normalize: true, Seed: 3, RecordTrace: true})
		env := xrand.New(55)
		const steps = 2000
		for s := 0; s < steps; s++ {
			arm := a.Step()
			a.Reward(means[arm] + 0.02*env.NormFloat64())
		}
		best := 0
		for _, arm := range a.Trace()[steps/2:] {
			if arm == 1 {
				best++
			}
		}
		frac := float64(best) / float64(steps/2)
		if frac < 0.85 {
			t.Errorf("%s: best-arm fraction in second half = %.2f, want >= 0.85", name, frac)
		}
	}
}

// Non-stationary adaptation (the Fig. 7 mcf scenario): after a phase
// change swaps which arm is optimal, DUCB should re-lock onto the new best
// arm while plain UCB stays stuck much longer.
func TestDUCBAdaptsToPhaseChangeFasterThanUCB(t *testing.T) {
	run := func(p Policy) float64 {
		a := MustNew(Config{Arms: 3, Policy: p, Normalize: true, Seed: 11, RecordTrace: true})
		env := xrand.New(77)
		const half = 3000
		for s := 0; s < 2*half; s++ {
			arm := a.Step()
			var means []float64
			if s < half {
				means = []float64{0.8, 0.3, 0.2}
			} else {
				means = []float64{0.2, 0.3, 0.8} // phase change: arm 2 now best
			}
			a.Reward(means[arm] + 0.02*env.NormFloat64())
		}
		// Fraction of the final quarter spent on the new best arm.
		trace := a.Trace()
		tail := trace[len(trace)*3/4:]
		hit := 0
		for _, arm := range tail {
			if arm == 2 {
				hit++
			}
		}
		return float64(hit) / float64(len(tail))
	}
	ducb := run(NewDUCB(0.05, 0.995))
	ucb := run(NewUCB(0.05))
	if ducb < 0.8 {
		t.Errorf("DUCB post-phase-change best-arm fraction = %.2f, want >= 0.8", ducb)
	}
	if ducb <= ucb {
		t.Errorf("DUCB (%.2f) should adapt better than UCB (%.2f)", ducb, ucb)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() []int {
		a := MustNew(Config{Arms: 4, Policy: NewEpsilonGreedy(0.3), Seed: 9, RecordTrace: true})
		env := xrand.New(1)
		for s := 0; s < 500; s++ {
			arm := a.Step()
			a.Reward(env.Float64() * float64(arm+1))
		}
		return a.Trace()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverged at %d", i)
		}
	}
}

func TestReset(t *testing.T) {
	a := MustNew(ducbConfig(5, 3))
	for s := 0; s < 50; s++ {
		a.Step()
		a.Reward(0.5)
	}
	a.Reset()
	if a.StepsTaken() != 0 || !a.InInitialRR() {
		t.Error("Reset did not restore initial state")
	}
	if arm := a.Step(); arm != 0 {
		t.Errorf("first arm after Reset = %d, want 0 (RR)", arm)
	}
	a.Reward(1)
	for i, n := range a.Counts() {
		want := 0.0
		if i == 0 {
			want = 1
		}
		if n != want {
			t.Errorf("count[%d] = %v after reset+1 step", i, n)
		}
	}
}

func TestRRRestartTriggersAndPreservesState(t *testing.T) {
	a := MustNew(Config{
		Arms:          3,
		Policy:        NewDUCB(0.04, 0.999),
		RRRestartProb: 0.2, // high so the test is fast
		Seed:          2,
		RecordTrace:   true,
	})
	env := xrand.New(4)
	for s := 0; s < 500; s++ {
		a.Step()
		a.Reward(0.5 + 0.1*env.NormFloat64())
	}
	if a.Restarts() == 0 {
		t.Fatal("no RR restarts triggered with prob 0.2 over 500 steps")
	}
	// A restart forces the full 0,1,2 sequence somewhere in the main loop.
	trace := a.Trace()
	found := false
	for i := 3; i+2 < len(trace); i++ {
		if trace[i] == 0 && trace[i+1] == 1 && trace[i+2] == 2 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no forced round-robin sweep found in main-loop trace")
	}
	// Counts must reflect all 500 steps (state preserved, not reset).
	total := 0.0
	for _, n := range a.Counts() {
		total += n
	}
	if total < 3 { // DUCB discounts, but state must not be zeroed
		t.Errorf("counts look reset: %v", a.Counts())
	}
}

func TestNoRestartWhenProbZero(t *testing.T) {
	a := MustNew(Config{Arms: 3, Policy: NewUCB(0.1), Seed: 2})
	for s := 0; s < 1000; s++ {
		a.Step()
		a.Reward(1)
	}
	if a.Restarts() != 0 {
		t.Errorf("restarts = %d with prob 0", a.Restarts())
	}
}

func TestFixedArmController(t *testing.T) {
	var c Controller = FixedArm(4)
	if c.Step() != 4 || c.InInitialRR() {
		t.Error("FixedArm misbehaves")
	}
	c.Reward(123) // must not panic
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

// policyConfigs is the algorithm matrix the equivalence tests sweep: every
// built-in policy the devirtualized fast path special-cases, the §4.3
// restart variant, whose RNG consumption is the easiest thing to break,
// and Single, which takes the fast path's interface fallback.
func policyConfigs() map[string]Config {
	mk := func(p Policy, rrProb float64) Config {
		return Config{Arms: 6, Policy: p, Normalize: true, RRRestartProb: rrProb, Seed: 99}
	}
	return map[string]Config{
		"eps":     mk(NewEpsilonGreedy(0.1), 0),
		"ucb":     mk(NewUCB(PrefetchC), 0),
		"ducb":    mk(NewDUCB(PrefetchC, PrefetchGamma), 0),
		"ducb+rr": mk(NewDUCB(PrefetchC, PrefetchGamma), 0.05),
		"single":  mk(NewSingle(), 0),
	}
}

// opaquePolicy hides a built-in policy's concrete type from the Agent's
// devirtualized type switch, forcing the generic interface path.
type opaquePolicy struct{ Policy }

// TestDevirtualizedDispatchEquivalence pins the fast path against the
// interface path: the same policy driven both ways must produce
// bit-identical decision streams and tables.
func TestDevirtualizedDispatchEquivalence(t *testing.T) {
	for name, cfg := range policyConfigs() {
		t.Run(name, func(t *testing.T) {
			fast := MustNew(cfg)
			opaque := cfg
			opaque.Policy = &opaquePolicy{cfg.Policy}
			slow := MustNew(opaque)

			for i := 0; i < 300; i++ {
				got, want := fast.Step(), slow.Step()
				if got != want {
					t.Fatalf("step %d: fast arm %d, interface arm %d", i, got, want)
				}
				r := stepReward(got, i)
				fast.Reward(r)
				slow.Reward(r)
			}
			if !reflect.DeepEqual(fast.Rewards(), slow.Rewards()) ||
				!reflect.DeepEqual(fast.Counts(), slow.Counts()) {
				t.Fatal("fast-path and interface-path tables diverged")
			}
			if fast.Restarts() != slow.Restarts() {
				t.Fatalf("restarts: fast %d, interface %d", fast.Restarts(), slow.Restarts())
			}
		})
	}
}

// TestNewAllocs pins what one agent costs to build: the Agent record
// and the one array holding both table rows. The RNG is seeded in place.
func TestNewAllocs(t *testing.T) {
	cfg := Config{Arms: PrefetchArms, Policy: NewDUCB(PrefetchC, PrefetchGamma), Normalize: true, Seed: 1}
	allocs := testing.AllocsPerRun(100, func() { MustNew(cfg) })
	if allocs > 2 {
		t.Fatalf("New of an %d-arm DUCB agent makes %v allocations, want <= 2", cfg.Arms, allocs)
	}
}

// TestResetAllocs: Reset clears the tables in place and re-seeds the
// RNG by value, so it allocates nothing.
func TestResetAllocs(t *testing.T) {
	a := MustNew(Config{Arms: PrefetchArms, Policy: NewDUCB(PrefetchC, PrefetchGamma), Normalize: true, Seed: 1})
	for range 50 {
		a.Step()
		a.Reward(0.5)
	}
	if allocs := testing.AllocsPerRun(100, a.Reset); allocs != 0 {
		t.Fatalf("Agent.Reset makes %v allocations, want 0", allocs)
	}
}
