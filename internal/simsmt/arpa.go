package simsmt

// ARPA (Wang, Koren & Krishna, PACT 2008) is the alternative SMT
// resource-distribution method the paper's related work discusses (§8):
// instead of hill-climbing a threshold, it partitions shared resources in
// proportion to each thread's *usage efficiency* — committed instructions
// per occupied resource entry — so threads that turn entries into
// throughput get more of them.
//
// This implementation drives the same share knob Hill Climbing does (the
// per-thread occupancy cap applied by the fetch-gating policy), so ARPA,
// Choi, and the Bandit are compared on identical machinery. It is a
// fixed-policy partitioner: a Runner with ARPA set (NewARPARunner) keeps
// one fetch PG policy and takes no arm controller.
type ARPA struct {
	// Smoothing is the EWMA factor applied to the efficiency-derived
	// share (0 = jump immediately; 0.5 = halve the step).
	Smoothing float64

	share      float64
	prevCommit [2]int64
	prevOcc    [2]int64
}

// NewARPA returns an ARPA controller starting from an even split.
func NewARPA() *ARPA { return &ARPA{Smoothing: 0.5, share: 0.5} }

// Share returns thread 0's current resource share.
func (a *ARPA) Share() float64 { return a.share }

// EpochEnd updates the partition from the epoch's per-thread commit and
// occupancy deltas.
func (a *ARPA) EpochEnd(sim *SMT) {
	var eff [2]float64
	for t := 0; t < 2; t++ {
		commits := sim.Committed(t) - a.prevCommit[t]
		occ := sim.OccupancyIntegral(t) - a.prevOcc[t]
		a.prevCommit[t] = sim.Committed(t)
		a.prevOcc[t] = sim.OccupancyIntegral(t)
		if occ > 0 {
			eff[t] = float64(commits) / float64(occ)
		}
	}
	if eff[0]+eff[1] <= 0 {
		return
	}
	target := eff[0] / (eff[0] + eff[1])
	a.share = a.Smoothing*a.share + (1-a.Smoothing)*target
	a.share = clampShare(a.share)
}

// Reset returns the controller to the even split.
func (a *ARPA) Reset() {
	a.share = 0.5
	a.prevCommit = [2]int64{}
	a.prevOcc = [2]int64{}
}

// NewARPARunner builds a controller-less Runner that keeps the given
// fetch PG policy and repartitions with ARPA every epoch.
func NewARPARunner(sim *SMT, policy Policy) *Runner {
	r := NewFixedRunner(sim, policy, false)
	r.ARPA = NewARPA()
	return r
}
