package core

import (
	"errors"
	"fmt"

	"microbandit/internal/xrand"
)

// This file is the struct-of-arrays storage layer for agents. A Slab
// holds N agents' entire learned state — the rTable and nTable of every
// slot — in two contiguous slot-major float64 arrays, with the Agent
// records themselves packed in a contiguous slice. One agent's row is
// tables[slot], whose R and N slices alias the backing arrays.
//
// The scalar Agent API is unchanged: New builds a one-slot slab, so a
// standalone agent is just the degenerate case and every decision an
// agent makes is bit-identical whether it lives alone or in a
// thousand-slot slab. Nothing outside this package places agents in a
// shared slab any more — the decision server's sessions each own the
// agent New or RestoreAgent builds — so multi-slot slabs, StepBatch and
// RewardBatch remain only for the benchmark's core-layer probe.
//
// A Slab's backing arrays are fixed at construction and never
// reallocated, so a caller may operate on disjoint slots from different
// goroutines (each under its own lock) without synchronizing on the slab
// itself; only Alloc and Free mutate shared slab state and need external
// serialization.

// ErrSlabFull reports an Alloc on a slab with no free slots.
var ErrSlabFull = errors.New("core: slab is full")

// Slab is a fixed-capacity struct-of-arrays arena of agents that share
// one arm count. Construct with NewSlab.
type Slab struct {
	arms int
	r    []float64 // slot-major rTable backing: slot s owns [s*arms, (s+1)*arms)
	n    []float64 // slot-major nTable backing, same layout
	// tables[s] views the slot's rows; NTotal lives inline in the
	// element, so the whole learned state of slot s is reachable without
	// leaving the slab's allocations.
	tables []Tables
	agents []Agent
	used   []bool
	free   []int32 // stack of free slots
}

// NewSlab returns an empty slab with room for capacity agents of the
// given arm count.
func NewSlab(arms, capacity int) (*Slab, error) {
	if arms < 1 {
		return nil, fmt.Errorf("core: slab needs at least 1 arm, got %d", arms)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("core: slab needs capacity >= 1, got %d", capacity)
	}
	s := &Slab{
		arms:   arms,
		r:      make([]float64, arms*capacity),
		n:      make([]float64, arms*capacity),
		tables: make([]Tables, capacity),
		agents: make([]Agent, capacity),
		used:   make([]bool, capacity),
		free:   make([]int32, capacity),
	}
	for i := 0; i < capacity; i++ {
		lo, hi := i*arms, (i+1)*arms
		// Full slice expressions pin cap so an append through a view
		// could never bleed into the neighbouring slot's row.
		s.tables[i] = Tables{R: s.r[lo:hi:hi], N: s.n[lo:hi:hi]}
		s.free[i] = int32(capacity - 1 - i) // pop order 0, 1, 2, ...
	}
	return s, nil
}

// MustNewSlab is NewSlab that panics on error, for tests and examples.
func MustNewSlab(arms, capacity int) *Slab {
	s, err := NewSlab(arms, capacity)
	if err != nil {
		panic(err)
	}
	return s
}

// Arms returns the arm count every slot shares.
func (s *Slab) Arms() int { return s.arms }

// Cap returns the slot capacity.
func (s *Slab) Cap() int { return len(s.agents) }

// Live returns the number of allocated slots.
func (s *Slab) Live() int { return len(s.agents) - len(s.free) }

// Alloc constructs an agent in a free slot, exactly as New would, and
// returns it with its slot index. The config's arm count must match the
// slab's. A full slab returns ErrSlabFull.
func (s *Slab) Alloc(cfg Config) (*Agent, int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, -1, err
	}
	if cfg.Arms != s.arms {
		return nil, -1, fmt.Errorf("core: config has %d arms, slab holds %d-arm agents", cfg.Arms, s.arms)
	}
	if len(s.free) == 0 {
		return nil, -1, ErrSlabFull
	}
	slot := int(s.free[len(s.free)-1])
	s.free = s.free[:len(s.free)-1]
	s.used[slot] = true
	t := &s.tables[slot]
	clear(t.R)
	clear(t.N)
	t.NTotal = 0
	a := &s.agents[slot]
	*a = Agent{cfg: cfg, tables: t, rng: *xrand.New(cfg.Seed)}
	a.queueRoundRobin()
	return a, slot, nil
}

// Free releases an allocated slot. The agent record is zeroed so freed
// state can never leak into the slot's next tenant. Freeing a slot that
// is not allocated is a programming error and panics.
func (s *Slab) Free(slot int) {
	if slot < 0 || slot >= len(s.agents) || !s.used[slot] {
		panic(fmt.Sprintf("core: Free of unallocated slab slot %d", slot))
	}
	s.used[slot] = false
	s.agents[slot] = Agent{}
	// free was sized to capacity at construction, so this append never
	// reallocates.
	s.free = append(s.free, int32(slot))
}

// Agent returns the agent in an allocated slot, or nil for a free or
// out-of-range slot.
func (s *Slab) Agent(slot int) *Agent {
	if slot < 0 || slot >= len(s.agents) || !s.used[slot] {
		return nil
	}
	return &s.agents[slot]
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
