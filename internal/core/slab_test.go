package core

import (
	"reflect"
	"testing"
)

func TestSlabAllocRejectsMismatchedArms(t *testing.T) {
	sl := MustNewSlab(4, 1)
	_, _, err := sl.Alloc(Config{Arms: 5, Policy: NewUCB(1), Seed: 1})
	if err == nil {
		t.Fatal("Alloc with mismatched arm count succeeded")
	}
}

func TestSlabAllocRejectsFull(t *testing.T) {
	sl := MustNewSlab(4, 2)
	cfg := Config{Arms: 4, Policy: NewUCB(1), Seed: 1}
	for want := 0; want < 2; want++ {
		if _, slot, err := sl.Alloc(cfg); err != nil || slot != want {
			t.Fatalf("Alloc %d: slot %d, err %v", want, slot, err)
		}
	}
	if _, _, err := sl.Alloc(cfg); err == nil {
		t.Fatal("Alloc on a full slab succeeded")
	}
}

// TestSlabScalarEquivalence pins the slab's contract: an agent living
// in a crowded slab makes bit-identical decisions to a standalone one,
// for every algorithm. The slab agent is deliberately surrounded by
// neighbours running different seeds so cross-slot state bleed would be
// caught.
func TestSlabScalarEquivalence(t *testing.T) {
	for name, cfg := range policyConfigs() {
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

// TestBatchKernelsMatchScalarLoop drives one slab through the batch
// kernels and a twin population of standalone agents through scalar
// Step/Reward, with identical rewards.
func TestBatchKernelsMatchScalarLoop(t *testing.T) {
	const arms, pop, steps = 6, 16, 200
	sl := MustNewSlab(arms, pop)
	twins := make([]*Agent, pop)
	agents := make([]*Agent, pop)
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
		a, slot, err := sl.Alloc(cfg)
		if err != nil {
			t.Fatal(err)
		}
		agents[i], slots[i] = a, int32(slot)
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
		a := agents[i]
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

// TestBatchKernelsAllocFree pins the steady-state allocation count of
// the batch kernels at zero. The population is past its initial round-robin phase, so the
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
