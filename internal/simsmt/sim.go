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

// robEntry is an in-flight uop awaiting in-order commit.
type robEntry struct {
	complete int64
	drainAt  int64  // stores: when the SQ entry frees (0 otherwise)
	frees    uint64 // the lanes commit frees: the uop's lanes but IQ and SQ
}

// A thread's occupancy of its structures is one word of seven 9-bit
// lanes, in the order the paper's Fig. 15 lists the structures, then the
// branches in the ROB (the BrC metric). A lane counts at most laneMax,
// which New checks against every structure's size, so the sum of the two
// threads' lanes plus one more uop plus limit biases of laneMax − size
// stays below 2·(laneMax+1): the top bit of a lane, its flag, is set iff
// the sum exceeds the size, and no lane carries into the next.
const (
	laneROB = iota
	laneIQ
	laneLQ
	laneSQ
	laneIRF
	laneFRF
	laneBranch
	numLanes

	laneBits = 9
	laneMax  = 1<<(laneBits-1) - 1
	laneOnes = (1<<(laneBits*numLanes) - 1) / (1<<laneBits - 1) // 1 in every lane
	// flagMask holds the flags of the six capacity-limited lanes.
	flagMask = (laneOnes &^ (1 << (laneBits * laneBranch))) << (laneBits - 1)
)

// lane returns 1 in lane l.
func lane(l int) uint64 { return 1 << (laneBits * l) }

// field returns lane l of an occupancy word.
func field(occ uint64, l int) int { return int(occ>>(laneBits*l)) & (1<<laneBits - 1) }

// kindLanes are the lanes each uop kind takes at rename: a ROB and an IQ
// entry, an LQ or SQ entry for a load or store, a rename register, and a
// branch count.
var kindLanes = [...]uint64{
	smtwork.UopALU:    lane(laneROB) + lane(laneIQ) + lane(laneIRF),
	smtwork.UopFP:     lane(laneROB) + lane(laneIQ) + lane(laneFRF),
	smtwork.UopLoad:   lane(laneROB) + lane(laneIQ) + lane(laneLQ) + lane(laneIRF),
	smtwork.UopStore:  lane(laneROB) + lane(laneIQ) + lane(laneSQ),
	smtwork.UopBranch: lane(laneROB) + lane(laneIQ) + lane(laneBranch),
}

// storeMask is all ones for a store and zero otherwise, to keep drainAt
// zero for every other kind without a branch.
var storeMask = [len(kindLanes)]int64{smtwork.UopStore: -1}

// laneCause maps a set flag's lane to its Fig. 15 stall cause.
var laneCause = [numLanes]stallCause{
	laneROB: stallROB, laneIQ: stallIQ, laneLQ: stallLQ, laneSQ: stallSQ,
	laneIRF: stallRF, laneFRF: stallRF,
}

// thread is one hardware context.
type thread struct {
	gen *smtwork.Gen

	// uops is a ring, of a power-of-two length, over the thread's uop
	// stream: the fetch/decode queue's qLen uops from qHead on, then
	// ahead uops the generator has drawn that fetch has not taken yet.
	// renameReady[i] is the cycle uops[i] reaches rename.
	uops               []smtwork.Uop
	renameReady        []int64
	qHead, qLen, ahead int

	awaitBranch bool  // a fetched mispredict blocks further fetch
	blockedTill int64 // front-end redirect in progress

	rob      []robEntry // ring
	robHead  int
	robCount int

	occ uint64 // lanes: ROB, IQ, LQ, SQ, IRF, FRF, branches

	completions []int64 // recent uop completion cycles (dep window ring)
	seq         int64   // uops renamed so far

	committed int64
}

// uopBatch is the most uops fetch draws from a generator at once, past
// the fetch queue. The uop stream does not depend on pipeline timing, so
// drawing ahead is exact.
const uopBatch = 64

// occupied is the thread's shared-structure occupancy (ROB+IQ+LQ+SQ).
func (t *thread) occupied() int64 {
	o := t.occ
	return int64(field(o, laneROB) + field(o, laneIQ) + field(o, laneLQ) + field(o, laneSQ))
}

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
)

// A wheel lane never counts more releases than its structure has
// entries, which New caps at laneMax, so the 16-bit lanes cannot overflow.

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

	// limitBias holds laneMax − size in each capacity-limited lane (see
	// resourceBlock).
	limitBias uint64
	// gateBias and gateMask are the fetch gate (see setGates).
	gateBias [2]uint64
	gateMask uint64

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
	s := &SMT{cfg: cfg, policy: ChoiPolicy}
	for l, size := range s.limits() {
		if size < 0 || size > laneMax {
			panic(fmt.Sprintf("simsmt: structure sizes must be in [0, %d]", laneMax))
		}
		if l != laneBranch {
			s.limitBias += uint64(laneMax-size) * lane(l)
		}
	}
	s.share = [2]float64{0.5, 0.5}
	s.setGates()
	ring := 1 << bits.Len(uint(max(cfg.FetchQCap, 0)+uopBatch-1))
	for i, g := range []*smtwork.Gen{genA, genB} {
		s.threads[i] = &thread{
			gen:         g,
			uops:        make([]smtwork.Uop, ring),
			renameReady: make([]int64, ring),
			rob:         make([]robEntry, cfg.ROBSize),
			completions: make([]int64, cfg.DepWindow),
		}
	}
	return s
}

// limits returns each lane's structure size. The branch lane has none of
// its own: branches sit in the ROB.
func (s *SMT) limits() [numLanes]int {
	c := &s.cfg
	return [numLanes]int{laneROB: c.ROBSize, laneIQ: c.IQSize, laneLQ: c.LQSize,
		laneSQ: c.SQSize, laneIRF: c.IRFSize, laneFRF: c.FRFSize}
}

// gateFlags are the lane flags each gating-mask bit watches. LQ and SQ
// gate separately: a thread hogging one of them (lbm's store-queue
// appetite, §3.3) must trip the gate even when the other queue is idle.
var gateFlags = [numGates]uint64{
	GateIQ:  lane(laneIQ) << (laneBits - 1),
	GateLSQ: (lane(laneLQ) | lane(laneSQ)) << (laneBits - 1),
	GateROB: lane(laneROB) << (laneBits - 1),
	GateIRF: lane(laneIRF) << (laneBits - 1),
}

// setGates rebuilds the fetch gate from the policy and the shares. A
// thread is over its share of a structure of size n iff its lane x
// exceeds share·n, and for an integer x that is x > floor(share·n). So
// gateBias holds laneMax − floor(share·n) in every lane a gate can watch,
// the sum of a lane and its bias sets the lane's flag iff the thread is
// over, and gateMask keeps the flags the policy watches. A NaN share
// (SetShare passes one through) puts no bias in the lane, which never
// sets a flag, as NaN never compares greater.
func (s *SMT) setGates() {
	s.gateMask = 0
	for g, on := range s.policy.Gate {
		if on {
			s.gateMask |= gateFlags[g]
		}
	}
	limits := s.limits()
	for ti, share := range s.share {
		var bias uint64
		for _, l := range [...]int{laneROB, laneIQ, laneLQ, laneSQ, laneIRF} {
			if y := share * float64(limits[l]); y == y {
				bias += uint64(laneMax-int(y)) * lane(l)
			}
		}
		s.gateBias[ti] = bias
	}
}

// SetPolicy switches the fetch PG policy.
func (s *SMT) SetPolicy(p Policy) {
	s.policy = p
	s.setGates()
}

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
	s.setGates()
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
		const iq, sq = laneBits * laneIQ, laneBits * laneSQ
		s.threads[0].occ -= lanes&0xffff<<iq + lanes>>16&0xffff<<sq
		s.threads[1].occ -= lanes>>32&0xffff<<iq + lanes>>48<<sq
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
		if t.qLen > 0 && t.renameReady[t.qHead] > s.cycle {
			next = min(next, t.renameReady[t.qHead])
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
			t.occ -= e.frees
			if drain := e.drainAt; drain != 0 {
				if drain <= s.cycle {
					t.occ -= lane(laneSQ)
				} else {
					s.releases.push(s.cycle, drain, ti, releaseSQ)
				}
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
		t, o := s.threads[ti], s.threads[ti^1]
		for budget > 0 {
			if t.qLen == 0 {
				break
			}
			if t.renameReady[t.qHead] > at {
				break
			}
			u := &t.uops[t.qHead]
			if c := s.resourceBlock(t, o, u.Kind); c != stallNone {
				if cause == stallNone {
					cause = c
				}
				break // in-order rename: head blocks the thread
			}
			s.renameUop(ti, t, u)
			t.qHead = (t.qHead + 1) & (len(t.uops) - 1)
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

// resourceBlock reports which shared structure, if any, blocks renaming a
// uop of kind k for thread t beside its sibling o: the first full one in
// the order the paper's Fig. 15 lists them. The two threads' lanes plus
// the uop's, plus limitBias, set a lane's flag iff the lane's sum would
// exceed its size, which is the test sum >= size before the uop. A lane
// the uop does not take never exceeds its size, so it never flags, and the
// lowest flag is the cause.
func (s *SMT) resourceBlock(t, o *thread, k smtwork.UopKind) stallCause {
	flags := (t.occ + o.occ + kindLanes[k] + s.limitBias) & flagMask
	if flags == 0 {
		return stallNone
	}
	return laneCause[bits.TrailingZeros64(flags)/laneBits]
}

// renameUop allocates structures, schedules execution, and handles branch
// redirects.
func (s *SMT) renameUop(ti int, t *thread, u *smtwork.Uop) {
	// Dependence: producer completion by program-order distance.
	// A uop has a producer iff 0 < DepDist <= seq, one unsigned compare;
	// the ring read is in bounds either way and a select, not a branch,
	// discards it.
	window := int64(len(t.completions) - 1)
	pc := t.completions[(t.seq-int64(u.DepDist))&window]
	if uint64(u.DepDist-1) >= uint64(t.seq) {
		pc = 0
	}
	start := max(s.cycle+1, pc)
	complete := start + u.Lat

	// The IQ entry is held from rename until the uop starts executing, and
	// a store's SQ entry until its write drains; commit frees the rest.
	lanes := kindLanes[u.Kind]
	t.occ += lanes
	s.releases.push(s.cycle, start, ti, releaseIQ)
	// A store's drainAt is at least 1, so it marks the entry as a store;
	// commit, at a cycle of at least 1, frees the SQ entry at once for any
	// drain already due.
	e := robEntry{
		complete: complete,
		drainAt:  max(complete+u.DrainLat, 1) & storeMask[u.Kind],
		frees:    lanes &^ (lane(laneIQ) | lane(laneSQ)),
	}
	if u.Mispredict {
		// Redirect: fetch resumes after the branch resolves.
		t.blockedTill = complete + s.cfg.MispredictRefill
		t.awaitBranch = false
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
	mask := len(t.uops) - 1
	for k := 0; k < s.cfg.FetchWidth && t.qLen < s.cfg.FetchQCap; k++ {
		tail := (t.qHead + t.qLen) & mask
		if t.ahead == 0 {
			// Draw up to uopBatch uops into the free run from the tail,
			// which ends at the ring's end or at the queue's head.
			t.ahead = min(uopBatch, len(t.uops)-tail, len(t.uops)-t.qLen)
			t.gen.Fill(t.uops[tail : tail+t.ahead])
		}
		t.renameReady[tail] = ready
		t.qLen++
		t.ahead--
		if t.uops[tail].Mispredict { // only branches mispredict
			// Stop fetching this thread until the branch is renamed and
			// resolved (wrong-path suppression).
			t.awaitBranch = true
			break
		}
	}
	return true
}

// gated reports whether thread ti exceeds its occupancy share in any
// structure the policy watches (see setGates).
func (s *SMT) gated(ti int) bool {
	return (s.threads[ti].occ+s.gateBias[ti])&s.gateMask != 0
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
	o0, o1 := s.threads[0].occ, s.threads[1].occ
	switch s.policy.Priority {
	case PriorityIC:
		return argminThread(field(o0, laneIQ), field(o1, laneIQ), &s.rrNext)
	case PriorityBrC:
		return argminThread(field(o0, laneBranch), field(o1, laneBranch), &s.rrNext)
	case PriorityLSQC:
		return argminThread(field(o0, laneLQ)+field(o0, laneSQ),
			field(o1, laneLQ)+field(o1, laneSQ), &s.rrNext)
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
		o := t.occ
		out += fmt.Sprintf("t%d: iq=%d rob=%d lq=%d sq=%d irf=%d frf=%d br=%d; ",
			i, field(o, laneIQ), t.robCount, field(o, laneLQ), field(o, laneSQ),
			field(o, laneIRF), field(o, laneFRF), field(o, laneBranch))
	}
	return out
}
