// Package smtwork provides the synthetic thread workloads for the SMT
// instruction-fetch experiments — the substitute for the paper's SPEC17
// SimPoint checkpoints (§6.2).
//
// Each named profile is a deterministic micro-op generator characterizing
// one application's pipeline appetite: instruction mix, memory-level
// behaviour (L1/L2/DRAM hit distribution), dependence structure (ILP), the
// probability that loads chain (pointer chasing), store drain behaviour
// (store-queue pressure — the lbm property discussed in §3.3), and branch
// misprediction rate. Those are exactly the axes along which the fetch
// Priority & Gating policies differentiate, so 2-thread mixes of these
// profiles reproduce the policy win/loss structure of Fig. 5 and Fig. 13.
package smtwork

import (
	"fmt"
	"math"

	"microbandit/internal/xrand"
)

// UopKind classifies a micro-op.
type UopKind uint8

// Micro-op kinds.
const (
	UopALU UopKind = iota
	UopFP
	UopLoad
	UopStore
	UopBranch
)

// String implements fmt.Stringer.
func (k UopKind) String() string {
	switch k {
	case UopALU:
		return "alu"
	case UopFP:
		return "fp"
	case UopLoad:
		return "load"
	case UopStore:
		return "store"
	case UopBranch:
		return "branch"
	default:
		return fmt.Sprintf("uop(%d)", uint8(k))
	}
}

// Uop is one dynamic micro-op presented to the SMT pipeline.
type Uop struct {
	// Kind classifies the op.
	Kind UopKind
	// Lat is the execution latency once issued (for loads, the memory
	// latency drawn from the profile's hit distribution).
	Lat int64
	// DrainLat is, for stores, how long the store-queue entry lingers
	// after execution until the write drains (SQ pressure knob).
	DrainLat int64
	// DepDist is the program-order distance to the producer this op
	// waits for (0 = independent).
	DepDist int
	// Mispredict marks mispredicted branches (fetch redirect).
	Mispredict bool
}

// UsesIntReg reports whether the op allocates an integer rename register.
func (u *Uop) UsesIntReg() bool {
	return u.Kind == UopALU || u.Kind == UopLoad
}

// UsesFPReg reports whether the op allocates an FP rename register.
func (u *Uop) UsesFPReg() bool { return u.Kind == UopFP }

// Profile characterizes one synthetic application.
type Profile struct {
	// Name is the application name (styled after SPEC17).
	Name string

	// Instruction mix (fractions of all uops; remainder is ALU).
	LoadFrac, StoreFrac, BranchFrac, FPFrac float64

	// MispredictProb is P(mispredict | branch).
	MispredictProb float64

	// Memory behaviour: probability a load hits L1 or L2; the remainder
	// goes to DRAM with latency MemLat (±25% jitter).
	L1HitProb, L2HitProb float64
	MemLat               int64

	// StoreDrainDRAMProb is the probability a store's drain goes to
	// DRAM, holding its SQ entry for MemLat cycles (lbm-style SQ
	// exhaustion).
	StoreDrainDRAMProb float64

	// DepProb is the probability a uop depends on a recent producer;
	// DepDistMean sets the mean distance (small = serial, low ILP).
	DepProb     float64
	DepDistMean int

	// LoadChainProb is the probability a load depends on the previous
	// load (pointer chasing: serializes memory accesses).
	LoadChainProb float64

	// FPLat is the FP execution latency.
	FPLat int64
}

// Gen deterministically generates uops from a profile.
//
// Every draw is an integer test on one word of the stream, precomputed in
// NewGen: a coin is an xrand.Coin, and a mix pick compares the word's top
// 53 bits against the cumulative fractions scaled by 2^53 (see
// mixThreshold). The tests are exact: each decides as Float64() < c or
// Bool(p) would on the same word, and draws exactly the words they do.
type Gen struct {
	p         Profile
	rng       xrand.Rand
	sinceLoad int // uops since the previous load, for load chains

	// kindThr are the cumulative instruction-mix thresholds: load, store,
	// branch, FP; the rest is ALU.
	kindThr [4]uint64
	// hitThr are the cumulative L1, L2 hit thresholds.
	hitThr [2]uint64
	// memBase and memSpan give a DRAM latency, MemLat ±25%: memBase plus
	// a uniform draw below memSpan, or MemLat itself if memSpan is 0.
	memBase, memSpan int64

	loadChain, storeDRAM, mispredict, dep xrand.Coin
}

// NewGen builds a generator for profile p with the given seed.
func NewGen(p Profile, seed uint64) *Gen {
	if p.FPLat == 0 {
		p.FPLat = 4
	}
	if p.MemLat == 0 {
		p.MemLat = 250
	}
	if p.DepDistMean < 1 {
		p.DepDistMean = 8
	}
	g := &Gen{p: p, rng: xrand.Seeded(seed)}
	ls := p.LoadFrac + p.StoreFrac
	lsb := ls + p.BranchFrac
	g.kindThr = [4]uint64{mixThreshold(p.LoadFrac), mixThreshold(ls),
		mixThreshold(lsb), mixThreshold(lsb + p.FPFrac)}
	g.hitThr = [2]uint64{mixThreshold(p.L1HitProb), mixThreshold(p.L1HitProb + p.L2HitProb)}
	g.memBase, g.memSpan = p.MemLat, 0
	if span := p.MemLat / 2; span > 0 {
		g.memBase, g.memSpan = p.MemLat-span/2, span
	}
	g.loadChain = xrand.NewCoin(p.LoadChainProb)
	g.storeDRAM = xrand.NewCoin(p.StoreDrainDRAMProb)
	g.mispredict = xrand.NewCoin(p.MispredictProb)
	g.dep = xrand.NewCoin(p.DepProb)
	return g
}

// mixThreshold turns the test Float64() < c into an integer one: Float64
// is k·2^-53 for k the word's top 53 bits, and scaling by 2^53 is exact,
// so the test is k < ceil(c·2^53). A c of 1 or more passes every k, and a
// c of 0 or less, or NaN, passes none.
func mixThreshold(c float64) uint64 {
	switch {
	case !(c > 0):
		return 0
	case c >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(c * (1 << 53)))
}

// Name returns the profile name.
func (g *Gen) Name() string { return g.p.Name }

// Profile returns the generator's profile.
func (g *Gen) Profile() Profile { return g.p }

// Fill overwrites us with the next len(us) micro-ops of the stream. The
// stream does not depend on how it is cut into batches.
//
// A uop draws, in order: its kind; for a load, its hit level, a DRAM
// jitter if it misses both caches, and the load-chain coin; for a store,
// the drain coin and a DRAM jitter if it hits; for a branch, the
// mispredict coin; then, unless the uop already chains to a load, the
// dependence coin and, on a hit, the distance. The xoshiro state stays in
// locals across the batch and is written back at the end.
func (g *Gen) Fill(us []Uop) {
	st := g.rng.State()
	s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
	since := g.sinceLoad
	kindThr, hitThr := g.kindThr, g.hitThr
	memBase, memSpan := g.memBase, uint64(g.memSpan)
	depSpan := uint64(2 * g.p.DepDistMean)
	for i := range us {
		var w uint64
		w, s0, s1, s2, s3 = xrand.Step(s0, s1, s2, s3)
		u := Uop{Lat: 1}
		switch k := w >> 11; {
		case k < kindThr[0]:
			u.Kind = UopLoad
			w, s0, s1, s2, s3 = xrand.Step(s0, s1, s2, s3)
			switch h := w >> 11; {
			case h < hitThr[0]:
				u.Lat = 4
			case h < hitThr[1]:
				u.Lat = 16
			default:
				u.Lat = memBase
				if memSpan > 0 {
					w, s0, s1, s2, s3 = xrand.StepIntn(memSpan, s0, s1, s2, s3)
					u.Lat += int64(w)
				}
			}
			var chain bool
			chain, s0, s1, s2, s3 = g.loadChain.Flip(s0, s1, s2, s3)
			if chain && since > 0 {
				u.DepDist = since // chain to the previous load
			}
			since = -1 // the increment below makes it 0
		case k < kindThr[1]:
			u.Kind = UopStore
			var slow bool
			slow, s0, s1, s2, s3 = g.storeDRAM.Flip(s0, s1, s2, s3)
			u.DrainLat = 8
			if slow {
				u.DrainLat = memBase
				if memSpan > 0 {
					w, s0, s1, s2, s3 = xrand.StepIntn(memSpan, s0, s1, s2, s3)
					u.DrainLat += int64(w)
				}
			}
		case k < kindThr[2]:
			u.Kind = UopBranch
			u.Mispredict, s0, s1, s2, s3 = g.mispredict.Flip(s0, s1, s2, s3)
		case k < kindThr[3]:
			u.Kind = UopFP
			u.Lat = g.p.FPLat
		default:
			u.Kind = UopALU
		}
		since++
		// General dependence structure (skip if already chained).
		if u.DepDist == 0 {
			var dep bool
			dep, s0, s1, s2, s3 = g.dep.Flip(s0, s1, s2, s3)
			if dep {
				w, s0, s1, s2, s3 = xrand.StepIntn(depSpan, s0, s1, s2, s3)
				u.DepDist = 1 + int(w)
			}
		}
		us[i] = u
	}
	g.sinceLoad = since
	g.rng.SetState([4]uint64{s0, s1, s2, s3})
}
