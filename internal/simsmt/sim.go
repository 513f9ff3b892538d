package simsmt

import (
	"fmt"
	"math"
	"math/bits"

	"microbandit/internal/smtwork"
)

// Config holds the pipeline parameters (Table 5 defaults, Skylake-like).
type Config struct {
	IQSize, ROBSize  int
	LQSize, SQSize   int
	IRFSize, FRFSize int
	FetchWidth       int   // uops fetched per cycle from the chosen thread
	DecodeWidth      int   // uops renamed per cycle (shared)
	CommitWidth      int   // uops committed per cycle (shared)
	FetchQCap        int   // per-thread fetch/decode queue depth
	FrontLatency     int64 // fetch-to-rename pipeline depth
	MispredictRefill int64 // extra front-end refill after a branch resolves
	DepWindow        int   // how far back dependences can reach (a power of two)
}

// DefaultConfig mirrors the paper's Table 5: 97-entry IQ, 224-entry ROB,
// 72/56 LQ/SQ, 180/164 IRF/FRF, 16B (≈4-uop) fetch, 5-wide decode, 8-wide
// commit.
func DefaultConfig() Config {
	return Config{
		IQSize: 97, ROBSize: 224,
		LQSize: 72, SQSize: 56,
		IRFSize: 180, FRFSize: 164,
		FetchWidth: 4, DecodeWidth: 5, CommitWidth: 8,
		FetchQCap: 16, FrontLatency: 5, MispredictRefill: 10,
		DepWindow: 256,
	}
}

// RenameStats is the Fig. 15 accounting: for every cycle, the rename stage
// is either stalled on a full shared structure, idle (nothing delivered by
// fetch/decode, e.g. due to fetch gating), or running.
type RenameStats struct {
	StallROB, StallIQ, StallLQ, StallSQ, StallRF int64
	Idle                                         int64
	Running                                      int64
}

// Stalled returns the total stalled cycles.
func (r RenameStats) Stalled() int64 {
	return r.StallROB + r.StallIQ + r.StallLQ + r.StallSQ + r.StallRF
}

// Total returns the accounted cycles.
func (r RenameStats) Total() int64 { return r.Stalled() + r.Idle + r.Running }

// fetchedUop is a uop in the fetch/decode queue.
type fetchedUop struct {
	uop         smtwork.Uop
	renameReady int64
}

// robEntry is an in-flight uop awaiting in-order commit.
type robEntry struct {
	complete int64
	drainAt  int64 // stores: when the SQ entry frees (0 otherwise)
	kind     smtwork.UopKind
	intReg   bool
	fpReg    bool
}

// thread is one hardware context.
type thread struct {
	gen *smtwork.Gen

	fetchQ      []fetchedUop // ring of a power-of-two length >= FetchQCap
	qHead, qLen int
	awaitBranch bool  // a fetched mispredict blocks further fetch
	blockedTill int64 // front-end redirect in progress

	rob      []robEntry // ring
	robHead  int
	robCount int

	iq, lq, sq int // occupancies
	intRegs    int
	fpRegs     int
	branches   int // branches in ROB (BrC metric)

	completions []int64 // recent uop completion cycles (dep window ring)
	seq         int64   // uops renamed so far

	committed int64
}

// occupied is the thread's shared-structure occupancy (ROB+IQ+LQ+SQ).
func (t *thread) occupied() int64 { return int64(t.robCount + t.iq + t.lq + t.sq) }

// releaseWheel is the calendar of scheduled structure releases (IQ frees
// at issue, SQ at drain). Slot c&wheelMask holds the releases due at cycle
// c as four 16-bit counters, lane thread<<1 | what with what releaseIQ or
// releaseSQ, so scheduling a release at most wheelSlots cycles out is one
// add. A bitmap marks the non-empty slots and a summary word the non-empty
// bitmap words, so next finds the earliest pending release in two bit
// scans. Releases further out wait in the far heap. Every release due by a
// cycle is applied at the top of that cycle and only decrements a counter,
// so the order among same-cycle releases is unobservable and counting
// them is exact.
//
// due(c) reads only slot c, so a caller must pass every cycle before
// next to due, in order, skipping none that holds a release.
type releaseWheel struct {
	slots   [wheelSlots]uint64
	bits    [wheelSlots / 64]uint64
	summary uint64 // bit i set iff bits[i] != 0
	far     releaseQueue
}

const (
	// wheelSlots is the wheel's horizon in cycles, a power of two. The
	// longest release distance seen over sampled catalog mixes is ~1,250
	// cycles, so the far heap is for outliers.
	wheelSlots = 2048
	wheelMask  = wheelSlots - 1

	releaseIQ = 0
	releaseSQ = 1

	// laneMax is a lane's capacity. A lane never counts more releases
	// than its structure has entries, so New caps IQSize and SQSize.
	laneMax = 1<<16 - 1
)

// push schedules a release at cycle, which is after now, the last cycle
// passed to due.
func (w *releaseWheel) push(now, cycle int64, thread int, what int64) {
	if cycle-now > wheelSlots {
		w.far.push(cycle, thread, what)
		return
	}
	i := cycle & wheelMask
	w.slots[i] += 1 << (16 * (int64(thread)<<1 | what))
	w.bits[i>>6] |= 1 << (i & 63)
	w.summary |= 1 << (i >> 6)
}

// due removes the releases at cycle and returns them as a slot's four
// lanes.
func (w *releaseWheel) due(cycle int64) uint64 {
	i := cycle & wheelMask
	lanes := w.slots[i]
	if lanes != 0 {
		w.slots[i] = 0
		if w.bits[i>>6] &^= 1 << (i & 63); w.bits[i>>6] == 0 {
			w.summary &^= 1 << (i >> 6)
		}
	}
	for len(w.far) > 0 && w.far[0]>>2 <= cycle {
		lanes += 1 << (16 * (w.far.pop() & 3))
	}
	return lanes
}

// next returns the cycle of the earliest pending release, or
// math.MaxInt64 if none is pending. Every pending release is after now.
func (w *releaseWheel) next(now int64) int64 {
	n := int64(math.MaxInt64)
	if len(w.far) > 0 {
		n = w.far[0] >> 2
	}
	if w.summary == 0 {
		return n
	}
	// The wheel's releases are in (now, now+wheelSlots]: scan the slots
	// circularly from now+1's.
	start := uint64(now+1) & wheelMask
	word := start >> 6
	var slot uint64
	if m := w.bits[word] >> (start & 63); m != 0 {
		slot = start + uint64(bits.TrailingZeros64(m))
	} else {
		later := w.summary >> (word + 1) << (word + 1)
		if later == 0 {
			later = w.summary // wrap around
		}
		j := uint64(bits.TrailingZeros64(later))
		slot = j<<6 + uint64(bits.TrailingZeros64(w.bits[j]))
	}
	return min(n, now+1+int64((slot-start)&wheelMask))
}

// releaseQueue is the wheel's far tier: a binary min-heap of releases,
// each packed as cycle<<2 | thread<<1 | what.
type releaseQueue []int64

func (q *releaseQueue) push(cycle int64, thread int, what int64) {
	h := append(*q, 0)
	x := cycle<<2 | int64(thread)<<1 | what
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= x {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	*q = h
}

// pop removes and returns the earliest release.
func (q *releaseQueue) pop() int64 {
	h := *q
	top, n := h[0], len(h)-1
	x := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if x <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = x
	}
	*q = h
	return top
}

// SMT is the 2-way SMT pipeline.
type SMT struct {
	cfg     Config
	threads [2]*thread
	policy  Policy
	share   [2]float64 // per-thread structure share (Hill Climbing output)

	cycle    int64
	releases releaseWheel
	rename   RenameStats
	rrNext   int // round-robin fetch pointer
	commitRR int // alternating commit precedence

	disabled [2]bool // threads excluded from fetch (solo-IPC baselines)

	occAccum [2]int64 // per-thread occupancy integral (ROB+IQ+LQ+SQ per cycle)
}

// New builds the pipeline over two thread workload generators.
func New(cfg Config, genA, genB *smtwork.Gen) *SMT {
	if cfg.FetchWidth < 1 || cfg.DecodeWidth < 1 || cfg.CommitWidth < 1 {
		panic("simsmt: widths must be positive")
	}
	if cfg.DepWindow < 1 || cfg.DepWindow&(cfg.DepWindow-1) != 0 {
		panic("simsmt: DepWindow must be a power of two")
	}
	if cfg.IQSize > laneMax || cfg.SQSize > laneMax {
		panic("simsmt: IQ and SQ sizes must fit the release wheel's lanes")
	}
	s := &SMT{cfg: cfg, policy: ChoiPolicy}
	s.share = [2]float64{0.5, 0.5}
	for i, g := range []*smtwork.Gen{genA, genB} {
		s.threads[i] = &thread{
			gen:         g,
			fetchQ:      make([]fetchedUop, 1<<bits.Len(uint(max(cfg.FetchQCap, 1)-1))),
			rob:         make([]robEntry, cfg.ROBSize),
			completions: make([]int64, cfg.DepWindow),
		}
	}
	return s
}

// SetPolicy switches the fetch PG policy.
func (s *SMT) SetPolicy(p Policy) { s.policy = p }

// Policy returns the active fetch PG policy.
func (s *SMT) Policy() Policy { return s.policy }

// SetShare sets thread 0's share of every gated structure (thread 1 gets
// the complement); the Hill Climbing controller drives this.
func (s *SMT) SetShare(share float64) {
	if share < 0.1 {
		share = 0.1
	}
	if share > 0.9 {
		share = 0.9
	}
	s.share = [2]float64{share, 1 - share}
}

// Share returns thread 0's structure share.
func (s *SMT) Share() float64 { return s.share[0] }

// Cycle returns the simulated cycle count.
func (s *SMT) Cycle() int64 { return s.cycle }

// Committed returns thread t's committed uop count.
func (s *SMT) Committed(t int) int64 { return s.threads[t].committed }

// SumIPC returns the sum of the two threads' IPCs — the paper's SMT
// performance metric (§6.4).
func (s *SMT) SumIPC() float64 {
	if s.cycle == 0 {
		return 0
	}
	return float64(s.threads[0].committed+s.threads[1].committed) / float64(s.cycle)
}

// RenameStats returns the Fig. 15 rename-stage accounting.
func (s *SMT) RenameStats() RenameStats { return s.rename }

// RunCycles advances the pipeline n cycles.
func (s *SMT) RunCycles(n int64) {
	end := s.cycle + n
	for s.cycle < end {
		if !s.stepCycle() {
			s.skipDead(end)
		}
	}
}

// RunUntilCommitted advances until both threads have committed at least n
// uops (the paper's run-until-each-thread-completes methodology), with a
// cycle cap to guard against pathological configurations.
func (s *SMT) RunUntilCommitted(n int64, maxCycles int64) {
	for (s.threads[0].committed < n || s.threads[1].committed < n) && s.cycle < maxCycles {
		if !s.stepCycle() {
			s.skipDead(maxCycles)
		}
	}
}

// OccupancyIntegral returns the cumulative per-cycle sum of thread t's
// shared-structure occupancy (ROB+IQ+LQ+SQ) — the denominator of ARPA's
// resource-usage efficiency.
func (s *SMT) OccupancyIntegral(t int) int64 { return s.occAccum[t] }

// stepCycle advances one cycle: releases, commit, rename, fetch. It
// reports whether the cycle was live: whether it applied a release,
// committed, renamed or fetched anything.
func (s *SMT) stepCycle() bool {
	s.cycle++
	for i, t := range s.threads {
		s.occAccum[i] += t.occupied()
	}
	lanes := s.releases.due(s.cycle)
	if lanes != 0 {
		t0, t1 := s.threads[0], s.threads[1]
		t0.iq -= int(uint16(lanes))
		t0.sq -= int(uint16(lanes >> 16))
		t1.iq -= int(uint16(lanes >> 32))
		t1.sq -= int(uint16(lanes >> 48))
	}
	committed := s.commit()
	counter, renamed := s.renameStage(s.cycle)
	*counter++
	fetched := s.fetch()
	return lanes != 0 || committed || renamed || fetched
}

// skipDead fast-forwards from a dead cycle to just before the next cycle
// that can change anything, but not past bound. After a dead cycle the
// pipeline is frozen: a blocked rename head or a gated thread stays
// blocked until a commit or release, awaitBranch clears only on a rename,
// and share and policy are constant within one run call. So nothing can
// happen before the earliest release, ROB-head completion, future
// fetch-queue head rename-ready cycle or future redirect end. Each skipped
// cycle is charged exactly what stepping it would charge.
func (s *SMT) skipDead(bound int64) {
	next := s.releases.next(s.cycle)
	for _, t := range s.threads {
		if t.robCount > 0 {
			next = min(next, t.rob[t.robHead].complete)
		}
		if t.qLen > 0 && t.fetchQ[t.qHead].renameReady > s.cycle {
			next = min(next, t.fetchQ[t.qHead].renameReady)
		}
		if t.blockedTill > s.cycle {
			next = min(next, t.blockedTill)
		}
	}
	c := s.cycle
	k := min(next-1, bound) - c
	if k <= 0 {
		return
	}
	// A frozen cycle renames nothing, and its Fig. 15 class depends only on
	// its parity, which sets the order renameStage visits the threads in.
	counter, _ := s.renameStage(c + 1)
	*counter += (k + 1) / 2
	if k > 1 {
		counter, _ = s.renameStage(c + 2)
		*counter += k / 2
	}
	for i, t := range s.threads {
		s.occAccum[i] += k * t.occupied()
	}
	s.commitRR ^= int(k & 1)
	s.cycle += k
}

// commit retires completed uops in order, alternating thread precedence,
// and reports whether it retired any.
func (s *SMT) commit() bool {
	budget := s.cfg.CommitWidth
	first := s.commitRR
	s.commitRR ^= 1
	for _, ti := range [2]int{first, first ^ 1} {
		t := s.threads[ti]
		for budget > 0 && t.robCount > 0 {
			e := &t.rob[t.robHead]
			if e.complete > s.cycle {
				break
			}
			switch e.kind {
			case smtwork.UopLoad:
				t.lq--
			case smtwork.UopStore:
				drain := e.drainAt
				if drain <= s.cycle {
					t.sq--
				} else {
					s.releases.push(s.cycle, drain, ti, releaseSQ)
				}
			case smtwork.UopBranch:
				t.branches--
			}
			if e.intReg {
				t.intRegs--
			}
			if e.fpReg {
				t.fpRegs--
			}
			t.robHead++
			if t.robHead == len(t.rob) {
				t.robHead = 0
			}
			t.robCount--
			t.committed++
			budget--
		}
	}
	return budget < s.cfg.CommitWidth
}

// stall causes for rename accounting.
type stallCause uint8

const (
	stallNone stallCause = iota
	stallROB
	stallIQ
	stallLQ
	stallSQ
	stallRF
)

// renameStage moves uops that are ready at cycle at from the fetch queues
// into the backend, visiting the threads in that cycle's order and charging
// structure occupancy. It returns the Fig. 15 counter the cycle belongs to
// and whether it renamed anything.
func (s *SMT) renameStage(at int64) (counter *int64, renamed bool) {
	budget := s.cfg.DecodeWidth
	cause := stallNone

	first := int(at) & 1
	for _, ti := range [2]int{first, first ^ 1} {
		t := s.threads[ti]
		for budget > 0 {
			if t.qLen == 0 {
				break
			}
			f := &t.fetchQ[t.qHead]
			if f.renameReady > at {
				break
			}
			if c := s.resourceBlock(t, &f.uop); c != stallNone {
				if cause == stallNone {
					cause = c
				}
				break // in-order rename: head blocks the thread
			}
			s.renameUop(ti, t, &f.uop)
			t.qHead = (t.qHead + 1) & (len(t.fetchQ) - 1)
			t.qLen--
			budget--
		}
	}

	switch {
	case budget < s.cfg.DecodeWidth:
		return &s.rename.Running, true
	case cause == stallROB:
		return &s.rename.StallROB, false
	case cause == stallIQ:
		return &s.rename.StallIQ, false
	case cause == stallLQ:
		return &s.rename.StallLQ, false
	case cause == stallSQ:
		return &s.rename.StallSQ, false
	case cause == stallRF:
		return &s.rename.StallRF, false
	default:
		return &s.rename.Idle, false
	}
}

// resourceBlock reports which shared structure, if any, blocks renaming u.
// Structures are checked in the order the paper's Fig. 15 lists them.
func (s *SMT) resourceBlock(t *thread, u *smtwork.Uop) stallCause {
	other := s.otherOccupancy(t)
	if t.robCount+other.rob >= s.cfg.ROBSize {
		return stallROB
	}
	if t.iq+other.iq >= s.cfg.IQSize {
		return stallIQ
	}
	if u.Kind == smtwork.UopLoad && t.lq+other.lq >= s.cfg.LQSize {
		return stallLQ
	}
	if u.Kind == smtwork.UopStore && t.sq+other.sq >= s.cfg.SQSize {
		return stallSQ
	}
	if u.UsesIntReg() && t.intRegs+other.intRegs >= s.cfg.IRFSize {
		return stallRF
	}
	if u.UsesFPReg() && t.fpRegs+other.fpRegs >= s.cfg.FRFSize {
		return stallRF
	}
	return stallNone
}

// occupancy snapshot of the sibling thread.
type occupancy struct {
	rob, iq, lq, sq, intRegs, fpRegs int
}

func (s *SMT) otherOccupancy(t *thread) occupancy {
	var o *thread
	if s.threads[0] == t {
		o = s.threads[1]
	} else {
		o = s.threads[0]
	}
	return occupancy{rob: o.robCount, iq: o.iq, lq: o.lq, sq: o.sq,
		intRegs: o.intRegs, fpRegs: o.fpRegs}
}

// renameUop allocates structures, schedules execution, and handles branch
// redirects.
func (s *SMT) renameUop(ti int, t *thread, u *smtwork.Uop) {
	// Dependence: producer completion by program-order distance.
	start := s.cycle + 1
	window := int64(len(t.completions) - 1)
	if u.DepDist > 0 && int64(u.DepDist) <= t.seq {
		pc := t.completions[(t.seq-int64(u.DepDist))&window]
		if pc > start {
			start = pc
		}
	}
	complete := start + u.Lat

	// IQ entry held from rename until the uop starts executing.
	t.iq++
	s.releases.push(s.cycle, start, ti, releaseIQ)

	e := robEntry{complete: complete, kind: u.Kind}
	switch u.Kind {
	case smtwork.UopLoad:
		t.lq++
	case smtwork.UopStore:
		t.sq++
		e.drainAt = complete + u.DrainLat
	case smtwork.UopBranch:
		t.branches++
		if u.Mispredict {
			// Redirect: fetch resumes after the branch resolves.
			t.blockedTill = complete + s.cfg.MispredictRefill
			t.awaitBranch = false
		}
	}
	if u.UsesIntReg() {
		t.intRegs++
		e.intReg = true
	}
	if u.UsesFPReg() {
		t.fpRegs++
		e.fpReg = true
	}

	tail := t.robHead + t.robCount
	if tail >= len(t.rob) {
		tail -= len(t.rob)
	}
	t.rob[tail] = e
	t.robCount++
	t.completions[t.seq&window] = complete
	t.seq++
}

// fetch picks one thread per the PG policy and fetches up to FetchWidth
// uops, reporting whether it picked one (a fetchable thread always has
// room for at least one uop).
func (s *SMT) fetch() bool {
	ti := s.chooseFetchThread()
	if ti < 0 {
		return false
	}
	t := s.threads[ti]
	ready := s.cycle + s.cfg.FrontLatency
	for k := 0; k < s.cfg.FetchWidth && t.qLen < s.cfg.FetchQCap; k++ {
		f := &t.fetchQ[(t.qHead+t.qLen)&(len(t.fetchQ)-1)]
		t.gen.Next(&f.uop)
		f.renameReady = ready
		t.qLen++
		if f.uop.Kind == smtwork.UopBranch && f.uop.Mispredict {
			// Stop fetching this thread until the branch is renamed and
			// resolved (wrong-path suppression).
			t.awaitBranch = true
			break
		}
	}
	return true
}

// gated reports whether thread ti exceeds its occupancy share in any
// monitored structure.
func (s *SMT) gated(ti int) bool {
	t := s.threads[ti]
	share := s.share[ti]
	if s.policy.Gate[GateIQ] && float64(t.iq) > share*float64(s.cfg.IQSize) {
		return true
	}
	// LQ and SQ gate separately: a thread hogging one of them (lbm's
	// store-queue appetite, §3.3) must trip the gate even when the other
	// queue is idle.
	if s.policy.Gate[GateLSQ] && (float64(t.lq) > share*float64(s.cfg.LQSize) ||
		float64(t.sq) > share*float64(s.cfg.SQSize)) {
		return true
	}
	if s.policy.Gate[GateROB] && float64(t.robCount) > share*float64(s.cfg.ROBSize) {
		return true
	}
	if s.policy.Gate[GateIRF] && float64(t.intRegs) > share*float64(s.cfg.IRFSize) {
		return true
	}
	return false
}

// DisableThread excludes a thread from fetching entirely, turning the
// pipeline into a single-threaded machine for solo-IPC baselines.
func (s *SMT) DisableThread(ti int) { s.disabled[ti] = true }

// fetchable reports whether thread ti can accept fetch this cycle.
func (s *SMT) fetchable(ti int) bool {
	if s.disabled[ti] {
		return false
	}
	t := s.threads[ti]
	if t.awaitBranch || t.blockedTill > s.cycle {
		return false
	}
	if t.qLen >= s.cfg.FetchQCap {
		return false
	}
	return !s.gated(ti)
}

// chooseFetchThread applies the fetch PG policy: gate, then prioritize.
func (s *SMT) chooseFetchThread() int {
	a, b := s.fetchable(0), s.fetchable(1)
	switch {
	case !a && !b:
		return -1
	case a && !b:
		return 0
	case b && !a:
		return 1
	}
	// Both eligible: apply the priority metric (lower is better).
	switch s.policy.Priority {
	case PriorityIC:
		return argminThread(s.threads[0].iq, s.threads[1].iq, &s.rrNext)
	case PriorityBrC:
		return argminThread(s.threads[0].branches, s.threads[1].branches, &s.rrNext)
	case PriorityLSQC:
		return argminThread(s.threads[0].lq+s.threads[0].sq,
			s.threads[1].lq+s.threads[1].sq, &s.rrNext)
	default: // Round Robin
		s.rrNext ^= 1
		return s.rrNext
	}
}

// argminThread picks the thread with the smaller metric, alternating on
// ties to stay fair.
func argminThread(m0, m1 int, rr *int) int {
	switch {
	case m0 < m1:
		return 0
	case m1 < m0:
		return 1
	default:
		*rr ^= 1
		return *rr
	}
}

// Occupancies returns a debug snapshot "t0: iq=.. rob=.. ..." (tests).
func (s *SMT) Occupancies() string {
	out := ""
	for i, t := range s.threads {
		out += fmt.Sprintf("t%d: iq=%d rob=%d lq=%d sq=%d irf=%d frf=%d br=%d; ",
			i, t.iq, t.robCount, t.lq, t.sq, t.intRegs, t.fpRegs, t.branches)
	}
	return out
}
