package core

import (
	"errors"
	"reflect"
	"testing"
)

// slabPolicies is the algorithm matrix the equivalence tests sweep: every
// built-in policy the devirtualized fast path special-cases, the §4.3
// restart variant, whose RNG consumption is the easiest thing to break,
// and Single, which takes the fast path's interface fallback.
func slabPolicies() map[string]Config {
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

func TestSlabAllocFree(t *testing.T) {
	sl := MustNewSlab(4, 3)
	if sl.Arms() != 4 || sl.Cap() != 3 || sl.Live() != 0 {
		t.Fatalf("fresh slab: arms=%d cap=%d live=%d", sl.Arms(), sl.Cap(), sl.Live())
	}
	cfg := Config{Arms: 4, Policy: NewDUCB(PrefetchC, PrefetchGamma), Seed: 1}
	slots := map[int]bool{}
	for i := 0; i < 3; i++ {
		a, slot, err := sl.Alloc(cfg)
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		if a != sl.Agent(slot) {
			t.Fatalf("Alloc %d: agent pointer does not match Agent(%d)", i, slot)
		}
		if slots[slot] {
			t.Fatalf("Alloc %d: slot %d handed out twice", i, slot)
		}
		slots[slot] = true
	}
	if sl.Live() != 3 {
		t.Fatalf("live = %d, want 3", sl.Live())
	}
	if _, _, err := sl.Alloc(cfg); !errors.Is(err, ErrSlabFull) {
		t.Fatalf("Alloc on full slab: err = %v, want ErrSlabFull", err)
	}

	// Dirty a slot, free it, and check its next tenant starts clean.
	a1 := sl.Agent(1)
	drive(a1, 0, 20)
	sl.Free(1)
	if sl.Agent(1) != nil {
		t.Fatalf("Agent(1) non-nil after Free")
	}
	a, slot, err := sl.Alloc(cfg)
	if err != nil || slot != 1 {
		t.Fatalf("Alloc after Free: slot=%d err=%v, want slot 1", slot, err)
	}
	if a.StepsTaken() != 0 || !a.InInitialRR() {
		t.Fatalf("reused slot not reset: steps=%d", a.StepsTaken())
	}
	for i, r := range a.Rewards() {
		if r != 0 {
			t.Fatalf("reused slot rTable[%d] = %v, want 0", i, r)
		}
	}
}

func TestSlabAllocRejectsMismatchedArms(t *testing.T) {
	sl := MustNewSlab(4, 1)
	_, _, err := sl.Alloc(Config{Arms: 5, Policy: NewUCB(1), Seed: 1})
	if err == nil {
		t.Fatal("Alloc with mismatched arm count succeeded")
	}
}

func TestSlabFreePanicsOnUnallocatedSlot(t *testing.T) {
	sl := MustNewSlab(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Free of an unallocated slot did not panic")
		}
	}()
	sl.Free(0)
}

// TestSlabScalarEquivalence pins the tentpole contract: an agent living
// in a crowded slab makes bit-identical decisions to a standalone one,
// for every algorithm. The slab agent is deliberately surrounded by
// neighbours running different seeds so cross-slot state bleed would be
// caught.
func TestSlabScalarEquivalence(t *testing.T) {
	for name, cfg := range slabPolicies() {
		t.Run(name, func(t *testing.T) {
			solo := MustNew(cfg)

			sl := MustNewSlab(cfg.Arms, 5)
			neighbour := cfg
			neighbour.Seed = 7
			if _, _, err := sl.Alloc(neighbour); err != nil {
				t.Fatal(err)
			}
			packed, _, err := sl.Alloc(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := sl.Alloc(neighbour); err != nil {
				t.Fatal(err)
			}

			// Interleave: the neighbours advance too, on a different stream.
			for i := 0; i < 300; i++ {
				if got, want := packed.Step(), solo.Step(); got != want {
					t.Fatalf("step %d: slab arm %d, scalar arm %d", i, got, want)
				}
				r := stepReward(solo.CurrentArm(), i)
				packed.Reward(r)
				solo.Reward(r)
			}
			if !reflect.DeepEqual(packed.Rewards(), solo.Rewards()) ||
				!reflect.DeepEqual(packed.Counts(), solo.Counts()) {
				t.Fatal("slab and scalar tables diverged")
			}
			if packed.Restarts() != solo.Restarts() {
				t.Fatalf("restarts: slab %d, scalar %d", packed.Restarts(), solo.Restarts())
			}
		})
	}
}

// opaquePolicy hides a built-in policy's concrete type from the Agent's
// devirtualized type switch, forcing the generic interface path the
// pre-slab implementation always took.
type opaquePolicy struct{ Policy }

// TestDevirtualizedDispatchEquivalence pins the fast path against the
// interface path: the same policy driven both ways must produce
// bit-identical decision streams and tables. Together with
// TestSlabScalarEquivalence this is the "no worse than pre-refactor"
// guarantee — the interface path is the pre-refactor code.
func TestDevirtualizedDispatchEquivalence(t *testing.T) {
	for name, cfg := range slabPolicies() {
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

// TestBatchKernelsMatchScalarLoop drives one slab through the batch
// kernels and a twin population of standalone agents through scalar
// Step/Reward, with identical rewards.
func TestBatchKernelsMatchScalarLoop(t *testing.T) {
	const arms, pop, steps = 6, 16, 200
	sl := MustNewSlab(arms, pop)
	twins := make([]*Agent, pop)
	slots := make([]int32, pop)
	batchArms := make([]int32, pop)
	rewards := make([]float64, pop)
	for i := range twins {
		cfg := Config{Arms: arms, Policy: NewDUCB(PrefetchC, PrefetchGamma), Normalize: true, Seed: uint64(i + 1)}
		if i%3 == 1 {
			cfg.Policy = NewEpsilonGreedy(0.1)
		}
		if i%3 == 2 {
			cfg.Policy = NewUCB(0.25)
		}
		_, slot, err := sl.Alloc(cfg)
		if err != nil {
			t.Fatal(err)
		}
		slots[i] = int32(slot)
		cfgTwin := cfg
		cfgTwin.Policy = clonePolicy(t, cfg.Policy)
		twins[i] = MustNew(cfgTwin)
	}
	for step := 0; step < steps; step++ {
		sl.StepBatch(slots, batchArms)
		for i, tw := range twins {
			want := tw.Step()
			if int(batchArms[i]) != want {
				t.Fatalf("step %d slot %d: batch arm %d, scalar arm %d", step, i, batchArms[i], want)
			}
			rewards[i] = stepReward(want, step+i)
			tw.Reward(rewards[i])
		}
		sl.RewardBatch(slots, rewards)
	}
	for i, tw := range twins {
		a := sl.Agent(int(slots[i]))
		if !reflect.DeepEqual(a.Rewards(), tw.Rewards()) || !reflect.DeepEqual(a.Counts(), tw.Counts()) {
			t.Fatalf("slot %d: batch-driven tables diverged from scalar twin", i)
		}
	}
}

// clonePolicy builds an independent policy with the same hyperparameters,
// so twin agents share no mutable state.
func clonePolicy(t *testing.T, p Policy) Policy {
	t.Helper()
	switch p := p.(type) {
	case *DUCB:
		return NewDUCB(p.C, p.Gamma)
	case *EpsilonGreedy:
		return NewEpsilonGreedy(p.Epsilon)
	case *UCB:
		return NewUCB(p.C)
	default:
		t.Fatalf("clonePolicy: unhandled %T", p)
		return nil
	}
}

// TestRestoreAgentInContinuesStream checks the slab restore path against
// the standalone one: both restored agents must continue the original
// agent's exact decision stream.
func TestRestoreAgentInContinuesStream(t *testing.T) {
	for name, cfg := range slabPolicies() {
		t.Run(name, func(t *testing.T) {
			orig := MustNew(cfg)
			drive(orig, 0, 50)
			snap, err := orig.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			standalone, err := RestoreAgent(snap)
			if err != nil {
				t.Fatal(err)
			}
			sl := MustNewSlab(cfg.Arms, 4)
			if _, _, err := sl.Alloc(Config{Arms: cfg.Arms, Policy: NewUCB(1), Seed: 3}); err != nil {
				t.Fatal(err)
			}
			slabbed, _, err := RestoreAgentIn(sl, snap)
			if err != nil {
				t.Fatal(err)
			}

			a1 := drive(orig, 50, 80)
			a2 := drive(standalone, 50, 80)
			a3 := drive(slabbed, 50, 80)
			if !reflect.DeepEqual(a1, a2) {
				t.Fatal("standalone restore diverged from original")
			}
			if !reflect.DeepEqual(a1, a3) {
				t.Fatal("slab restore diverged from original")
			}
		})
	}
}

func TestSlabResetKeepsSlot(t *testing.T) {
	sl := MustNewSlab(4, 2)
	cfg := Config{Arms: 4, Policy: NewDUCB(PrefetchC, PrefetchGamma), Seed: 5}
	a, slot, err := sl.Alloc(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := drive(a, 0, 30)
	a.Reset()
	if got := drive(a, 0, 30); !reflect.DeepEqual(got, first) {
		t.Fatal("Reset did not reproduce the original stream")
	}
	if sl.Agent(slot) != a {
		t.Fatal("Reset moved the agent out of its slot")
	}
}

// TestBatchKernelsAllocFree pins the steady-state allocation count of
// the batch kernels at zero (PR 5 discipline, extended to the batch
// plane). The population is past its initial round-robin phase, so the
// sweep exercises the real policy arithmetic.
func TestBatchKernelsAllocFree(t *testing.T) {
	const arms, pop = 8, 64
	sl := MustNewSlab(arms, pop)
	slots := make([]int32, pop)
	out := make([]int32, pop)
	rewards := make([]float64, pop)
	for i := 0; i < pop; i++ {
		a, slot, err := sl.Alloc(Config{Arms: arms, Policy: NewDUCB(PrefetchC, PrefetchGamma), Normalize: true, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		slots[i] = int32(slot)
		drive(a, 0, arms+4) // through the initial RR phase
	}
	for i := range rewards {
		rewards[i] = 0.5
	}
	allocs := testing.AllocsPerRun(50, func() {
		sl.StepBatch(slots, out)
		sl.RewardBatch(slots, rewards)
	})
	if allocs != 0 {
		t.Fatalf("StepBatch+RewardBatch allocate %v per sweep, want 0", allocs)
	}
}
