package core

import (
	"encoding/json"
	"testing"
)

// Satellite audit: Alloc after Free must leave no trace of the slot's
// previous tenant. A session allocated into a recycled slot must produce
// a decision stream bit-identical to a fresh heap Agent with the same
// spec — and identical serialized state, so checkpoints cannot tell the
// two apart either.

// dirtySlot drives an agent hard enough to touch every piece of per-slot
// state: tables, RNG stream, forced queue (via RR restarts), trace,
// normalization constant, and an open step.
func dirtySlot(a *Agent) {
	for i := 0; i < 300; i++ {
		arm := a.Step()
		a.Reward(0.3 + 0.6*float64((arm*i)%5)/5)
	}
	a.Step() // leave a step open so inStep/currentArm are non-zero too
}

func TestSlabRecycledSlotMatchesFreshAgent(t *testing.T) {
	algos := []string{"ducb", "ucb", "eps"}
	for _, algo := range algos {
		t.Run(algo, func(t *testing.T) {
			const arms = 5
			sl, err := NewSlab(arms, 2)
			if err != nil {
				t.Fatal(err)
			}
			// Previous tenant: a different seed, restarts enabled, trace
			// recording on — maximally different per-slot state.
			dirtyCfg, err := AlgoConfig(algo, arms, 0xdeadbeef, true)
			if err != nil {
				t.Fatal(err)
			}
			dirtyCfg.RRRestartProb = 0.05
			prev, slot, err := sl.Alloc(dirtyCfg)
			if err != nil {
				t.Fatal(err)
			}
			dirtySlot(prev)
			sl.Free(slot)

			// New tenant in the recycled slot vs a fresh heap agent.
			cfg, err := AlgoConfig(algo, arms, 31337, false)
			if err != nil {
				t.Fatal(err)
			}
			recycled, slot2, err := sl.Alloc(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if slot2 != slot {
				t.Fatalf("free list did not recycle slot %d (got %d)", slot, slot2)
			}
			cfg2, _ := AlgoConfig(algo, arms, 31337, false)
			fresh := MustNew(cfg2)

			for i := 0; i < 500; i++ {
				got, want := recycled.Step(), fresh.Step()
				if got != want {
					t.Fatalf("step %d: recycled slot chose arm %d, fresh agent %d", i, got, want)
				}
				r := 0.2 + 0.7*float64((want+i)%9)/9
				recycled.Reward(r)
				fresh.Reward(r)
			}

			// Bit-identical serialized state, not just identical decisions.
			rs, err := recycled.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fs, err := fresh.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			rb, _ := json.Marshal(rs)
			fb, _ := json.Marshal(fs)
			if string(rb) != string(fb) {
				t.Fatalf("recycled-slot snapshot differs from fresh agent:\n%s\n%s", rb, fb)
			}
		})
	}
}

// TestSlabRecycledSlotContextualAgent extends the audit through the
// contextual tier: contextual agents allocate their per-context agents as
// one-slot slabs (New), so the same zero-on-alloc invariant backs them.
func TestSlabRecycledSlotContextualAgent(t *testing.T) {
	sl, err := NewSlab(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := AlgoConfig("ducb", 4, 777, true)
	prev, slot, err := sl.Alloc(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dirtySlot(prev)
	sl.Free(slot)
	// The recycled slot now hosts one context of a contextual pair; the
	// reference contextual agent runs entirely on fresh heap slabs.
	recycledCfg, _ := AlgoConfig("ducb", 4, contextSeed(55, MakeSignature(1, 2, 3)), false)
	inSlot, _, err := sl.Alloc(recycledCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewContextualAgent(ContextualConfig{Arms: 4, Algo: "ducb", Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	ref.SetContext(MakeSignature(1, 2, 3))
	for i := 0; i < 200; i++ {
		got, want := inSlot.Step(), ref.Step()
		if got != want {
			t.Fatalf("step %d: slot-resident context arm %d, contextual agent %d", i, got, want)
		}
		r := float64((want*3 + i) % 8)
		inSlot.Reward(r)
		ref.Reward(r)
	}
}
