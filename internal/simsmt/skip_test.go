package simsmt

import (
	"testing"

	"microbandit/internal/xrand"
)

// splitCase is one pipeline configuration for the split-run tests.
type splitCase struct {
	a, b   string
	policy Policy
	share  float64
	solo   bool // thread 1 disabled, as in SoloIPC
}

var splitCases = []splitCase{
	{"mcf", "lbm", ChoiPolicy, 0.5, false},
	{"gcc", "lbm", mustPolicy("LSQC_1111"), 0.3, false},
	{"lbm", "fotonik3d", ICountPolicy, 0.5, false},
	{"exchange2", "mcf", mustPolicy("RR_1111"), 0.7, false},
	{"cactuBSSN", "parest", mustPolicy("BrC_1000"), 0.5, false},
	{"mcf", "mcf", ICountPolicy, 0.5, true},
}

func (c splitCase) name() string {
	n := c.a + "-" + c.b + "/" + c.policy.String()
	if c.solo {
		n += "/solo"
	}
	return n
}

func (c splitCase) sim(t *testing.T) *SMT {
	sim := NewSim(mustProfile(t, c.a), mustProfile(t, c.b), 21)
	sim.SetPolicy(c.policy)
	sim.SetShare(c.share)
	if c.solo {
		sim.DisableThread(1)
	}
	return sim
}

// TestSplitRunEquivalence: one RunCycles(n) call must leave exactly the
// state of every chunk schedule summing to n. RunCycles(1) steps a cycle
// and never skips, so the all-single-steps schedule is the reference for
// the dead-cycle skip, and the random schedules move the skip's end bound
// to arbitrary cycles.
func TestSplitRunEquivalence(t *testing.T) {
	const n = 60_000
	for i, c := range splitCases {
		t.Run(c.name(), func(t *testing.T) {
			whole := c.sim(t)
			whole.RunCycles(n)
			want := fingerprintOf(whole, nil)

			stepped := c.sim(t)
			for k := 0; k < n; k++ {
				stepped.RunCycles(1)
			}
			if got := fingerprintOf(stepped, nil); got != want {
				t.Fatalf("single steps diverge from one call\n got  %+v\n want %+v", got, want)
			}

			for sched := 0; sched < 3; sched++ {
				rng := xrand.New(uint64(10*i + sched))
				split := c.sim(t)
				for left := int64(n); left > 0; {
					if rng.Bool(0.4) {
						for r := 1 + rng.Intn(64); r > 0 && left > 0; r-- {
							split.RunCycles(1)
							left--
						}
						continue
					}
					k := min(left, int64(rng.Intn(5000))) // may be 0
					split.RunCycles(k)
					left -= k
				}
				if got := fingerprintOf(split, nil); got != want {
					t.Fatalf("schedule %d diverges from one call\n got  %+v\n want %+v", sched, got, want)
				}
			}
		})
	}
}

// TestRunUntilCommittedBound: RunUntilCommitted never runs past its cycle
// cap, stops at the cycle the commit target is first met, and a capped run
// matches RunCycles to the same cycle.
func TestRunUntilCommittedBound(t *testing.T) {
	for _, c := range splitCases {
		t.Run(c.name(), func(t *testing.T) {
			for _, maxCycles := range []int64{1, 777, 40_001} {
				capped := c.sim(t)
				capped.RunUntilCommitted(1<<40, maxCycles)
				if capped.Cycle() != maxCycles {
					t.Fatalf("cap %d: stopped at cycle %d", maxCycles, capped.Cycle())
				}
				ref := c.sim(t)
				ref.RunCycles(maxCycles)
				if got, want := fingerprintOf(capped, nil), fingerprintOf(ref, nil); got != want {
					t.Fatalf("cap %d: capped run diverges from RunCycles\n got  %+v\n want %+v", maxCycles, got, want)
				}
			}

			const target, maxCycles = 5_000, 100_000
			until := c.sim(t)
			until.RunUntilCommitted(target, maxCycles)
			ref := c.sim(t)
			for (ref.Committed(0) < target || ref.Committed(1) < target) && ref.Cycle() < maxCycles {
				ref.RunCycles(1)
			}
			if until.Cycle() > maxCycles {
				t.Fatalf("ran to cycle %d past the cap %d", until.Cycle(), maxCycles)
			}
			if got, want := fingerprintOf(until, nil), fingerprintOf(ref, nil); got != want {
				t.Fatalf("diverges from single steps\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestSteadyStateRunCyclesAllocsNothing: once its queues have grown, the
// pipeline simulates without allocating.
func TestSteadyStateRunCyclesAllocsNothing(t *testing.T) {
	for _, pair := range [][2]string{{"gcc", "lbm"}, {"mcf", "lbm"}} {
		sim := NewSim(mustProfile(t, pair[0]), mustProfile(t, pair[1]), 1)
		sim.RunCycles(200_000)
		if a := testing.AllocsPerRun(5, func() { sim.RunCycles(20_000) }); a != 0 {
			t.Errorf("%s-%s: %.1f allocs per RunCycles(20000), want 0", pair[0], pair[1], a)
		}
	}
}

// TestSteadyStateBanditRunnerAllocsNothing: after the initial round robin
// has saved every arm's Hill Climbing state, the bandit runner's epochs,
// rewards and arm switches allocate nothing.
func TestSteadyStateBanditRunnerAllocsNothing(t *testing.T) {
	sim := NewSim(mustProfile(t, "gcc"), mustProfile(t, "lbm"), 11)
	r := NewRunner(sim, NewBanditAgent(1), Table1Arms(), true)
	r.EpochLen = 2048
	r.RREpochs = 4
	r.MainEpochs = 2
	r.RunCycles(200_000)
	if a := testing.AllocsPerRun(5, func() { r.RunCycles(50_000) }); a != 0 {
		t.Errorf("%.1f allocs per Runner.RunCycles(50000), want 0", a)
	}
}
