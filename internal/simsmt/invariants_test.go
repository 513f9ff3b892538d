package simsmt

import (
	"testing"

	"microbandit/internal/smtwork"
)

// checkInvariants validates every structural invariant of the pipeline
// after each simulated chunk: every occupancy lane matches a recount from
// the state it summarizes, shared structures are within capacity, and the
// fetch queues are within their depth. A packed lane that went negative
// would borrow from its neighbour rather than show a negative count, so
// the recount, not a sign test, is what catches it:
//   - ROB, LQ, IRF, FRF and branches are recounted from the ROB ring;
//   - IQ is the thread's IQ releases pending in the wheel;
//   - SQ is the stores in the ROB plus the thread's pending SQ releases.
func checkInvariants(t *testing.T, sim *SMT) {
	t.Helper()
	cfg := sim.cfg
	var pending [2][2]int // [thread][releaseIQ or releaseSQ]
	for _, slot := range sim.releases.slots {
		for l := 0; l < 4; l++ {
			pending[l>>1][l&1] += int(uint16(slot >> (16 * l)))
		}
	}
	for _, r := range sim.releases.far {
		pending[r>>1&1][r&1]++
	}
	var total [numLanes]int
	for ti, th := range sim.threads {
		var want [numLanes]int
		stores := 0
		for k := 0; k < th.robCount; k++ {
			e := th.rob[(th.robHead+k)%len(th.rob)]
			for l := range want {
				want[l] += field(e.frees, l)
			}
			if e.drainAt != 0 {
				stores++
			}
		}
		want[laneIQ] = pending[ti][releaseIQ]
		want[laneSQ] = stores + pending[ti][releaseSQ]
		if want[laneROB] != th.robCount {
			t.Fatalf("cycle %d: thread %d ROB entries free %d ROB lanes, want robCount %d",
				sim.Cycle(), ti, want[laneROB], th.robCount)
		}
		if th.occ>>(laneBits*numLanes) != 0 {
			t.Fatalf("cycle %d: thread %d occupancy word %#x has bits above its lanes",
				sim.Cycle(), ti, th.occ)
		}
		for l, w := range want {
			if got := field(th.occ, l); got != w {
				t.Fatalf("cycle %d: thread %d lane %d holds %d, recount %d (%s)",
					sim.Cycle(), ti, l, got, w, sim.Occupancies())
			}
			total[l] += w
		}
		if th.qLen < 0 || th.qLen > cfg.FetchQCap {
			t.Fatalf("cycle %d: thread %d fetch queue %d outside [0,%d]",
				sim.Cycle(), ti, th.qLen, cfg.FetchQCap)
		}
	}
	rob, iq, lq, sq, irf, frf := total[laneROB], total[laneIQ], total[laneLQ],
		total[laneSQ], total[laneIRF], total[laneFRF]
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
	// IQ entries are released by wheel events that may lag the current
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
