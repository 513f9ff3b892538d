package simsmt

import (
	"testing"

	"microbandit/internal/smtwork"
)

// checkInvariants validates every structural invariant of the pipeline
// after each simulated chunk: occupancies non-negative, shared structures
// within capacity, and commit counts monotone.
func checkInvariants(t *testing.T, sim *SMT) {
	t.Helper()
	cfg := sim.cfg
	var rob, iq, lq, sq, irf, frf int
	for ti, th := range sim.threads {
		for name, v := range map[string]int{
			"rob": th.robCount, "iq": th.iq, "lq": th.lq, "sq": th.sq,
			"irf": th.intRegs, "frf": th.fpRegs, "branches": th.branches,
		} {
			if v < 0 {
				t.Fatalf("cycle %d: thread %d %s occupancy negative (%d)",
					sim.Cycle(), ti, name, v)
			}
		}
		if th.qLen < 0 || th.qLen > cfg.FetchQCap {
			t.Fatalf("cycle %d: thread %d fetch queue %d outside [0,%d]",
				sim.Cycle(), ti, th.qLen, cfg.FetchQCap)
		}
		rob += th.robCount
		iq += th.iq
		lq += th.lq
		sq += th.sq
		irf += th.intRegs
		frf += th.fpRegs
	}
	if rob > cfg.ROBSize {
		t.Fatalf("cycle %d: ROB over capacity (%d > %d)", sim.Cycle(), rob, cfg.ROBSize)
	}
	if lq > cfg.LQSize {
		t.Fatalf("cycle %d: LQ over capacity (%d > %d)", sim.Cycle(), lq, cfg.LQSize)
	}
	if sq > cfg.SQSize {
		t.Fatalf("cycle %d: SQ over capacity (%d > %d)", sim.Cycle(), sq, cfg.SQSize)
	}
	if irf > cfg.IRFSize || frf > cfg.FRFSize {
		t.Fatalf("cycle %d: register files over capacity (%d/%d)", sim.Cycle(), irf, frf)
	}
	// IQ entries are released by heap events that may lag the current
	// cycle by design; occupancy must still never exceed capacity.
	if iq > cfg.IQSize {
		t.Fatalf("cycle %d: IQ over capacity (%d > %d)", sim.Cycle(), iq, cfg.IQSize)
	}
}

// TestPipelineInvariantsUnderStress runs demanding mixes under every
// Table 1 policy with frequent invariant checks.
func TestPipelineInvariantsUnderStress(t *testing.T) {
	mixes := [][2]string{{"mcf", "lbm"}, {"lbm", "fotonik3d"}, {"exchange2", "mcf"}}
	for _, pair := range mixes {
		for _, policy := range Table1Arms() {
			a := mustProfileInv(t, pair[0])
			b := mustProfileInv(t, pair[1])
			sim := NewSim(a, b, 99)
			sim.SetPolicy(policy)
			sim.SetShare(0.3)
			for chunk := 0; chunk < 40; chunk++ {
				sim.RunCycles(500)
				checkInvariants(t, sim)
			}
			if sim.Committed(0)+sim.Committed(1) == 0 {
				t.Errorf("%s/%s-%s: nothing committed", policy, pair[0], pair[1])
			}
		}
	}
}

// TestPipelineCommitMonotone ensures commit counts never decrease and the
// pipeline never deadlocks under extreme share settings.
func TestPipelineCommitMonotone(t *testing.T) {
	a := mustProfileInv(t, "mcf")
	b := mustProfileInv(t, "lbm")
	for _, share := range []float64{0.1, 0.5, 0.9} {
		sim := NewSim(a, b, 7)
		sim.SetPolicy(mustPolicy("LSQC_1111"))
		sim.SetShare(share)
		var prev0, prev1 int64
		stuck := 0
		for chunk := 0; chunk < 50; chunk++ {
			sim.RunCycles(1000)
			c0, c1 := sim.Committed(0), sim.Committed(1)
			if c0 < prev0 || c1 < prev1 {
				t.Fatalf("commit counts decreased")
			}
			if c0 == prev0 && c1 == prev1 {
				stuck++
			} else {
				stuck = 0
			}
			if stuck >= 5 {
				t.Fatalf("share %.1f: pipeline made no progress for %d chunks (%s)",
					share, stuck, sim.Occupancies())
			}
			prev0, prev1 = c0, c1
		}
	}
}

// TestGatedThreadStillDrains: a hard-gated thread must keep committing
// its in-flight work (gating blocks fetch, not the backend).
func TestGatedThreadStillDrains(t *testing.T) {
	a := mustProfileInv(t, "lbm")
	b := mustProfileInv(t, "gcc")
	sim := NewSim(a, b, 3)
	sim.SetPolicy(mustPolicy("IC_1111"))
	sim.SetShare(0.1) // thread 0 squeezed to 10%
	sim.RunCycles(200_000)
	if sim.Committed(0) == 0 {
		t.Error("hard-gated thread starved completely")
	}
	// The favored thread should get clearly more throughput.
	if sim.Committed(1) < 2*sim.Committed(0) {
		t.Errorf("gating had little effect: %d vs %d", sim.Committed(0), sim.Committed(1))
	}
}

func mustProfileInv(t *testing.T, name string) smtwork.Profile {
	t.Helper()
	p, err := smtwork.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
