package core

import (
	"math"
	"testing"
	"testing/quick"

	"microbandit/internal/xrand"
)

// newTables allocates zeroed tables for the given number of arms.
func newTables(arms int) *Tables {
	return &Tables{R: make([]float64, arms), N: make([]float64, arms)}
}

func seededTables(r []float64) *Tables {
	t := newTables(len(r))
	copy(t.R, r)
	for i := range t.N {
		t.N[i] = 1
	}
	t.NTotal = float64(len(r))
	return t
}

func TestTablesBestArm(t *testing.T) {
	tb := seededTables([]float64{0.2, 0.9, 0.9, 0.1})
	if got := tb.BestArm(); got != 1 {
		t.Errorf("BestArm = %d, want 1 (first of ties)", got)
	}
	empty := newTables(0)
	if empty.BestArm() != 0 {
		t.Error("empty BestArm != 0")
	}
}

func TestEpsilonGreedyExploitsAtEpsZero(t *testing.T) {
	p := NewEpsilonGreedy(0)
	tb := seededTables([]float64{0.1, 0.8, 0.3})
	rng := xrand.New(1)
	for i := 0; i < 100; i++ {
		if arm := p.NextArm(tb, rng); arm != 1 {
			t.Fatalf("eps=0 selected arm %d", arm)
		}
	}
}

func TestEpsilonGreedyExploresAtRate(t *testing.T) {
	p := NewEpsilonGreedy(0.5)
	tb := seededTables([]float64{0.1, 0.8, 0.3})
	rng := xrand.New(1)
	nonBest := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if p.NextArm(tb, rng) != 1 {
			nonBest++
		}
	}
	// With eps=0.5 and 3 arms, P(non-best) = 0.5 * 2/3 = 1/3.
	frac := float64(nonBest) / draws
	if math.Abs(frac-1.0/3.0) > 0.02 {
		t.Errorf("non-best fraction = %.3f, want ~0.333", frac)
	}
}

func TestUCBPrefersUnderexploredArm(t *testing.T) {
	p := NewUCB(0.5)
	tb := newTables(3)
	// Arm 0: good but heavily sampled; arm 2: slightly worse, barely sampled.
	tb.R = []float64{0.6, 0.1, 0.55}
	tb.N = []float64{100, 100, 1}
	tb.NTotal = 201
	if arm := p.NextArm(tb, nil); arm != 2 {
		t.Errorf("UCB selected arm %d, want under-explored arm 2", arm)
	}
	// But an unacceptably bad arm is not explored.
	tb.R[2] = -5
	if arm := p.NextArm(tb, nil); arm == 2 {
		t.Error("UCB explored an unacceptably bad arm")
	}
}

// TestUCBExplorationDecays: the exploration bonus shrinks as evidence
// grows. A worse arm with a tenth of the selections wins on its bonus
// early and loses once the counts are a thousand times larger.
func TestUCBExplorationDecays(t *testing.T) {
	p := NewUCB(1)
	tables := func(k float64) *Tables {
		tb := seededTables([]float64{0.5, 0.4})
		tb.N = []float64{10 * k, k}
		tb.NTotal = 11 * k
		return tb
	}
	if arm := p.NextArm(tables(1), nil); arm != 1 {
		t.Errorf("early: chose arm %d, want the under-explored arm 1", arm)
	}
	if arm := p.NextArm(tables(1000), nil); arm != 0 {
		t.Errorf("late: chose arm %d, want the better arm 0", arm)
	}
}

func TestUCBRunningAverage(t *testing.T) {
	p := NewUCB(0.1)
	tb := newTables(1)
	rewards := []float64{1, 2, 3, 4}
	for _, r := range rewards {
		p.UpdateSelections(tb, 0)
		p.UpdateReward(tb, 0, r)
	}
	if !close(tb.R[0], 2.5) {
		t.Errorf("running average = %v, want 2.5", tb.R[0])
	}
	if tb.N[0] != 4 || tb.NTotal != 4 {
		t.Errorf("counts = %v / %v", tb.N[0], tb.NTotal)
	}
}

func TestDUCBDiscountsCounts(t *testing.T) {
	p := NewDUCB(0.1, 0.9)
	tb := seededTables([]float64{0.5, 0.5})
	p.UpdateSelections(tb, 0)
	// n = [1*0.9+1, 1*0.9] = [1.9, 0.9]; total = 2.8
	if !close(tb.N[0], 1.9) || !close(tb.N[1], 0.9) {
		t.Errorf("discounted counts = %v", tb.N)
	}
	if !close(tb.NTotal, 2.8) {
		t.Errorf("NTotal = %v, want 2.8", tb.NTotal)
	}
}

func TestDUCBCountsSaturate(t *testing.T) {
	// Repeatedly selecting the same arm converges n to 1/(1-gamma).
	p := NewDUCB(0.1, 0.9)
	tb := newTables(2)
	for i := 0; i < 1000; i++ {
		p.UpdateSelections(tb, 0)
		p.UpdateReward(tb, 0, 1)
	}
	limit := 1.0 / (1 - 0.9)
	if math.Abs(tb.N[0]-limit) > 1e-6 {
		t.Errorf("saturated count = %v, want %v", tb.N[0], limit)
	}
	// The never-selected arm's count decays toward zero.
	if tb.N[1] > 1e-9 {
		t.Errorf("idle arm count = %v, want ~0", tb.N[1])
	}
}

// TestDUCBRegainsExplorationBonus: while one arm is exploited, the idle
// arm's discounted count decays and its bonus grows until DUCB picks it
// again.
func TestDUCBRegainsExplorationBonus(t *testing.T) {
	p := NewDUCB(0.5, 0.9)
	tb := seededTables([]float64{0.5, 0.4})
	tb.N = []float64{10, 10}
	tb.NTotal = 20
	if arm := p.NextArm(tb, nil); arm != 0 {
		t.Fatalf("before: chose arm %d, want the better arm 0", arm)
	}
	for i := 0; i < 50; i++ {
		p.UpdateSelections(tb, 0)
		p.UpdateReward(tb, 0, 0.5)
	}
	if arm := p.NextArm(tb, nil); arm != 1 {
		t.Errorf("after 50 steps on arm 0: chose arm %d, want the idle arm 1 (counts %v)", arm, tb.N)
	}
}

func TestSingleLocksBestRRArm(t *testing.T) {
	a := MustNew(Config{Arms: 4, Policy: NewSingle(), Seed: 1, RecordTrace: true})
	rrRewards := []float64{0.3, 0.9, 0.5, 0.1}
	for _, r := range rrRewards {
		a.Step()
		a.Reward(r)
	}
	for s := 0; s < 100; s++ {
		arm := a.Step()
		if arm != 1 {
			t.Fatalf("Single deviated to arm %d at step %d", arm, s)
		}
		// Even terrible rewards don't change the choice.
		a.Reward(0.0001)
	}
}

func TestPeriodicAlternatesSweepAndExploit(t *testing.T) {
	const arms, exploit = 3, 5
	a := MustNew(Config{Arms: arms, Policy: NewPeriodic(exploit, 4), Seed: 1, RecordTrace: true})
	means := []float64{0.2, 0.9, 0.4}
	for s := 0; s < arms+3*(arms+exploit); s++ {
		arm := a.Step()
		a.Reward(means[arm])
	}
	trace := a.Trace()
	// After initial RR (3 steps), pattern: sweep 0,1,2 then exploit 1 x5, repeat.
	main := trace[arms:]
	for cycle := 0; cycle+arms+exploit <= len(main); cycle += arms + exploit {
		for i := 0; i < arms; i++ {
			if main[cycle+i] != i {
				t.Fatalf("cycle at %d: sweep step %d selected %d", cycle, i, main[cycle+i])
			}
		}
		for i := arms; i < arms+exploit; i++ {
			if main[cycle+i] != 1 {
				t.Fatalf("cycle at %d: exploit step selected %d, want 1", cycle, main[cycle+i])
			}
		}
	}
}

func TestPeriodicMovingAverageTracksChanges(t *testing.T) {
	// After the environment flips, Periodic's next sweep refreshes the
	// moving averages and exploitation moves to the new best arm.
	const arms, exploit, window = 2, 4, 2
	a := MustNew(Config{Arms: arms, Policy: NewPeriodic(exploit, window), Seed: 1, RecordTrace: true})
	// Step count aligned so the trace ends exactly on an exploit phase:
	// 2 initial RR steps + 16 cycles of (2 sweep + 4 exploit) = 98.
	flip := 40
	for s := 0; s < 98; s++ {
		arm := a.Step()
		var means []float64
		if s < flip {
			means = []float64{0.9, 0.1}
		} else {
			means = []float64{0.1, 0.9}
		}
		a.Reward(means[arm])
	}
	trace := a.Trace()
	tail := trace[len(trace)-exploit:]
	for _, arm := range tail {
		if arm != 1 {
			t.Fatalf("Periodic failed to adapt: tail=%v", tail)
		}
	}
}

func TestPeriodicClampsArgs(t *testing.T) {
	p := NewPeriodic(0, -3)
	if p.ExploitSteps != 1 || p.Window != 1 {
		t.Errorf("clamped params = %d/%d", p.ExploitSteps, p.Window)
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"eps-Greedy": NewEpsilonGreedy(0.1),
		"UCB":        NewUCB(0.1),
		"DUCB":       NewDUCB(0.1, 0.9),
		"Single":     NewSingle(),
		"Periodic":   NewPeriodic(4, 4),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

// Property: DUCB's NTotal always equals the sum of per-arm counts.
func TestQuickDUCBTotalInvariant(t *testing.T) {
	f := func(armsRaw uint8, selections []uint8) bool {
		arms := int(armsRaw%8) + 2
		p := NewDUCB(0.1, 0.95)
		tb := newTables(arms)
		for _, s := range selections {
			arm := int(s) % arms
			p.UpdateSelections(tb, arm)
			p.UpdateReward(tb, arm, 1)
			sum := 0.0
			for _, n := range tb.N {
				sum += n
			}
			if math.Abs(sum-tb.NTotal) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: running averages stay within the convex hull of rewards seen.
func TestQuickRunningAverageBounds(t *testing.T) {
	f := func(rewards []uint16) bool {
		if len(rewards) == 0 {
			return true
		}
		p := NewUCB(0.1)
		tb := newTables(1)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, raw := range rewards {
			r := float64(raw) / 1000
			lo = math.Min(lo, r)
			hi = math.Max(hi, r)
			p.UpdateSelections(tb, 0)
			p.UpdateReward(tb, 0, r)
			if tb.R[0] < lo-1e-9 || tb.R[0] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkDUCBStep(b *testing.B) {
	a := MustNew(Config{Arms: 11, Policy: NewDUCB(0.04, 0.999), Normalize: true, Seed: 1})
	for i := 0; i < b.N; i++ {
		a.Step()
		a.Reward(1.0)
	}
}

func BenchmarkUCBStep(b *testing.B) {
	a := MustNew(Config{Arms: 11, Policy: NewUCB(0.04), Normalize: true, Seed: 1})
	for i := 0; i < b.N; i++ {
		a.Step()
		a.Reward(1.0)
	}
}
