package core

import "fmt"

// A Slab is a fixed-capacity array of agents that share one arm count,
// stepped in sweeps by StepBatch and RewardBatch. It serves the
// benchmark's core-layer probe, which times those sweeps; everything
// else builds agents with New. Alloc constructs an agent exactly as New
// does, so a slab agent makes the same decisions as a standalone one.
type Slab struct {
	arms   int
	agents []Agent // len = allocated slots; cap is fixed, so never moved
}

// MustNewSlab returns an empty slab with room for capacity agents of the
// given arm count. It panics unless both are at least 1.
func MustNewSlab(arms, capacity int) *Slab {
	if arms < 1 || capacity < 1 {
		panic(fmt.Sprintf("core: slab needs arms and capacity >= 1, got %d and %d", arms, capacity))
	}
	return &Slab{arms: arms, agents: make([]Agent, 0, capacity)}
}

// Alloc constructs an agent in the next free slot and returns it with
// its slot index. The config's arm count must match the slab's, and a
// full slab is an error.
func (s *Slab) Alloc(cfg Config) (*Agent, int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, -1, err
	}
	if cfg.Arms != s.arms {
		return nil, -1, fmt.Errorf("core: config has %d arms, slab holds %d-arm agents", cfg.Arms, s.arms)
	}
	slot := len(s.agents)
	if slot == cap(s.agents) {
		return nil, -1, fmt.Errorf("core: slab is full (%d agents)", slot)
	}
	s.agents = s.agents[:slot+1]
	a := &s.agents[slot]
	a.init(cfg)
	return a, slot, nil
}

// StepBatch opens one decision on every listed slot, writing the arm
// chosen for slots[i] into arms[i]. It is the batch form of Agent.Step —
// one sweep over the contiguous agent records — and inherits Step's
// contract: every listed slot must be allocated with no step open, and
// each slot may appear at most once per call. arms must be at least as
// long as slots.
func (s *Slab) StepBatch(slots []int32, arms []int32) {
	agents := s.agents
	for i, slot := range slots {
		arms[i] = int32(agents[slot].Step())
	}
}

// RewardBatch closes the open decision on every listed slot with the
// matching reward. It is the batch form of Agent.Reward and inherits its
// contract: every listed slot must have a step open, and each slot may
// appear at most once per call. rewards must be at least as long as
// slots.
func (s *Slab) RewardBatch(slots []int32, rewards []float64) {
	agents := s.agents
	for i, slot := range slots {
		agents[slot].Reward(rewards[i])
	}
}
