package simsmt

import (
	"math"
	"testing"

	"microbandit/internal/smtwork"
	"microbandit/internal/xrand"
)

// occupancy is one thread's structure occupancies as separate counters,
// the form the pipeline kept before packing them into lanes.
type occupancy struct {
	rob, iq, lq, sq, intRegs, fpRegs, branches int
}

// word packs o into an occupancy word.
func (o occupancy) word() uint64 {
	return uint64(o.rob)*lane(laneROB) + uint64(o.iq)*lane(laneIQ) +
		uint64(o.lq)*lane(laneLQ) + uint64(o.sq)*lane(laneSQ) +
		uint64(o.intRegs)*lane(laneIRF) + uint64(o.fpRegs)*lane(laneFRF) +
		uint64(o.branches)*lane(laneBranch)
}

// refResourceBlock is the scalar rename check the lanes replace, kept as
// their oracle: structures in Fig. 15 order, each tested only for the
// kinds that take it.
func refResourceBlock(cfg Config, t, other occupancy, kind smtwork.UopKind) stallCause {
	u := smtwork.Uop{Kind: kind}
	if t.rob+other.rob >= cfg.ROBSize {
		return stallROB
	}
	if t.iq+other.iq >= cfg.IQSize {
		return stallIQ
	}
	if u.Kind == smtwork.UopLoad && t.lq+other.lq >= cfg.LQSize {
		return stallLQ
	}
	if u.Kind == smtwork.UopStore && t.sq+other.sq >= cfg.SQSize {
		return stallSQ
	}
	if u.UsesIntReg() && t.intRegs+other.intRegs >= cfg.IRFSize {
		return stallRF
	}
	if u.UsesFPReg() && t.fpRegs+other.fpRegs >= cfg.FRFSize {
		return stallRF
	}
	return stallNone
}

// refGated is the float fetch gate the lanes replace, kept as their
// oracle.
func refGated(cfg Config, p Policy, share float64, t occupancy) bool {
	if p.Gate[GateIQ] && float64(t.iq) > share*float64(cfg.IQSize) {
		return true
	}
	if p.Gate[GateLSQ] && (float64(t.lq) > share*float64(cfg.LQSize) ||
		float64(t.sq) > share*float64(cfg.SQSize)) {
		return true
	}
	if p.Gate[GateROB] && float64(t.rob) > share*float64(cfg.ROBSize) {
		return true
	}
	if p.Gate[GateIRF] && float64(t.intRegs) > share*float64(cfg.IRFSize) {
		return true
	}
	return false
}

// split draws a pair of occupancies whose sum is at most size, biased
// toward the sums where a rename check flips: size and size − 1.
func split(rng *xrand.Rand, size int) (int, int) {
	total := size
	switch rng.Intn(4) {
	case 0:
		total = size - 1
	case 1:
		total = rng.Intn(size + 1)
	}
	total = max(total, 0)
	a := rng.Intn(total + 1)
	return a, total - a
}

// TestRenameLanesMatchScalarOracle: the lane rename check gives the
// scalar check's stall cause for every uop kind over random in-capacity
// occupancies of both threads, most of them at or one short of a
// structure's size.
func TestRenameLanesMatchScalarOracle(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg, nil, nil)
	rng := xrand.New(5)
	kinds := []smtwork.UopKind{smtwork.UopALU, smtwork.UopFP, smtwork.UopLoad,
		smtwork.UopStore, smtwork.UopBranch}
	for i := 0; i < 200_000; i++ {
		var a, b occupancy
		a.rob, b.rob = split(rng, cfg.ROBSize)
		a.iq, b.iq = split(rng, cfg.IQSize)
		a.lq, b.lq = split(rng, cfg.LQSize)
		a.sq, b.sq = split(rng, cfg.SQSize)
		a.intRegs, b.intRegs = split(rng, cfg.IRFSize)
		a.fpRegs, b.fpRegs = split(rng, cfg.FRFSize)
		a.branches, b.branches = rng.Intn(a.rob+1), rng.Intn(b.rob+1)
		s.threads[0].occ, s.threads[1].occ = a.word(), b.word()
		for _, k := range kinds {
			for ti, pair := range [2][2]occupancy{{a, b}, {b, a}} {
				got := s.resourceBlock(s.threads[ti], s.threads[ti^1], k)
				if want := refResourceBlock(cfg, pair[0], pair[1], k); got != want {
					t.Fatalf("thread %d %v with %+v beside %+v: lanes say %d, scalar %d",
						ti, k, pair[0], pair[1], got, want)
				}
			}
		}
	}
}

// TestGateLanesMatchFloatOracle: the lane fetch gate agrees with the float
// gate for all 64 policies at the clamp edges 0.1 and 0.9, at 0.5 (where
// 0.5 × 224 is an integer), at random shares and at NaN, which never
// gates. Occupancies are drawn around each gated lane's threshold and at
// size − 1 and size.
func TestGateLanesMatchFloatOracle(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg, nil, nil)
	rng := xrand.New(9)
	near := func(size int, share float64) int {
		thr := int(share * float64(size))
		if share != share {
			thr = size
		}
		switch rng.Intn(6) {
		case 0:
			return max(thr-1, 0)
		case 1:
			return min(thr, size)
		case 2:
			return min(thr+1, size)
		case 3:
			return size - 1
		case 4:
			return size
		}
		return rng.Intn(size + 1)
	}
	shares := []float64{0.1, 0.9, 0.5, math.NaN()}
	for i := 0; i < 8; i++ {
		shares = append(shares, 0.1+0.8*rng.Float64())
	}
	for _, share := range shares {
		s.SetShare(share)
		for _, p := range AllPolicies() {
			s.SetPolicy(p)
			for i := 0; i < 2_000; i++ {
				for ti := range s.threads {
					sh := s.share[ti]
					o := occupancy{
						rob: near(cfg.ROBSize, sh), iq: near(cfg.IQSize, sh),
						lq: near(cfg.LQSize, sh), sq: near(cfg.SQSize, sh),
						intRegs: near(cfg.IRFSize, sh), fpRegs: rng.Intn(cfg.FRFSize + 1),
					}
					o.branches = rng.Intn(o.rob + 1)
					s.threads[ti].occ = o.word()
					if got, want := s.gated(ti), refGated(cfg, p, sh, o); got != want {
						t.Fatalf("share %v %s thread %d %+v: lanes gate %v, float gate %v",
							sh, p, ti, o, got, want)
					}
				}
			}
		}
	}
}

// TestNaNShareGatesNothing: SetShare passes NaN through unclamped, and a
// NaN share never gates, so under full gating the pipeline runs exactly
// as with none.
func TestNaNShareGatesNothing(t *testing.T) {
	a, b := mustProfile(t, "mcf"), mustProfile(t, "lbm")
	gatedAll := NewSim(a, b, 4)
	gatedAll.SetPolicy(mustPolicy("IC_1111"))
	gatedAll.SetShare(math.NaN())
	open := NewSim(a, b, 4)
	open.SetPolicy(ICountPolicy)
	open.SetShare(math.NaN())
	for chunk := 0; chunk < 20; chunk++ {
		gatedAll.RunCycles(2_000)
		open.RunCycles(2_000)
		for ti := range gatedAll.threads {
			if gatedAll.gated(ti) {
				t.Fatalf("chunk %d: thread %d gated at NaN share (%s)",
					chunk, ti, gatedAll.Occupancies())
			}
		}
	}
	if g, o := fingerprintOf(gatedAll, nil), fingerprintOf(open, nil); g != o {
		t.Errorf("NaN share under IC_1111 ran %+v, without gating %+v", g, o)
	}
}
