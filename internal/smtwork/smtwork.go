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
	g := &Gen{p: p, rng: *xrand.New(seed)}
	ls := p.LoadFrac + p.StoreFrac
	lsb := ls + p.BranchFrac
	g.kindThr = [4]uint64{mixThreshold(p.LoadFrac), mixThreshold(ls),
		mixThreshold(lsb), mixThreshold(lsb + p.FPFrac)}
	g.hitThr = [2]uint64{mixThreshold(p.L1HitProb), mixThreshold(p.L1HitProb + p.L2HitProb)}
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

// flip is c's outcome, drawing a word only if c does.
func (g *Gen) flip(c xrand.Coin) bool {
	var u uint64
	if c.Draws() {
		u = g.rng.Uint64()
	}
	return c.Hit(u)
}

// Next fills in the next micro-op.
func (g *Gen) Next(u *Uop) {
	*u = Uop{Lat: 1}
	k := g.rng.Uint64() >> 11
	switch {
	case k < g.kindThr[0]:
		u.Kind = UopLoad
		u.Lat = g.memLatency()
		if g.flip(g.loadChain) && g.sinceLoad > 0 {
			u.DepDist = g.sinceLoad // chain to the previous load
		}
		g.sinceLoad = 0
	case k < g.kindThr[1]:
		u.Kind = UopStore
		u.Lat = 1
		if g.flip(g.storeDRAM) {
			u.DrainLat = g.jitter(g.p.MemLat)
		} else {
			u.DrainLat = 8
		}
		g.sinceLoad++
	case k < g.kindThr[2]:
		u.Kind = UopBranch
		u.Mispredict = g.flip(g.mispredict)
		g.sinceLoad++
	case k < g.kindThr[3]:
		u.Kind = UopFP
		u.Lat = g.p.FPLat
		g.sinceLoad++
	default:
		u.Kind = UopALU
		g.sinceLoad++
	}
	// General dependence structure (skip if already chained).
	if u.DepDist == 0 && g.flip(g.dep) {
		u.DepDist = 1 + g.rng.Intn(2*g.p.DepDistMean)
	}
}

// memLatency draws a load latency from the hit distribution.
func (g *Gen) memLatency() int64 {
	k := g.rng.Uint64() >> 11
	switch {
	case k < g.hitThr[0]:
		return 4
	case k < g.hitThr[1]:
		return 16
	default:
		return g.jitter(g.p.MemLat)
	}
}

// jitter returns lat ±25%.
func (g *Gen) jitter(lat int64) int64 {
	span := lat / 2
	if span <= 0 {
		return lat
	}
	return lat - span/2 + int64(g.rng.Intn(int(span)))
}
