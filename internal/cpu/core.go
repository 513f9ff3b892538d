// Package cpu implements the trace-driven out-of-order core model used for
// the prefetching experiments — the project's ChampSim substitute.
//
// The model is a window (interval) model: instructions dispatch in order at
// up to FetchWidth per cycle into a ROB-sized window, execute with
// kind-specific latencies (memory operations through the internal/mem
// hierarchy, which models MSHRs and DRAM bandwidth), and retire in order at
// up to CommitWidth per cycle. Memory-level parallelism emerges naturally:
// independent loads issue as they dispatch and overlap until the ROB
// fills — exactly the mechanism that makes prefetching matter. Branch
// mispredictions redirect the front end after the branch resolves.
//
// The model deliberately omits register renaming and scheduler details: the
// Bandit only observes IPC responses to prefetch quality and bandwidth
// pressure, and those causal paths are fully present.
package cpu

import (
	"microbandit/internal/mem"
	"microbandit/internal/trace"
)

// Config holds the core parameters (Table 4 defaults).
type Config struct {
	// FetchWidth is the dispatch width per cycle.
	FetchWidth int
	// CommitWidth is the in-order retire width per cycle.
	CommitWidth int
	// ROBSize is the reorder-buffer (window) size.
	ROBSize int
	// MispredictPenalty is the front-end refill delay after a
	// mispredicted branch resolves.
	MispredictPenalty int64
	// ALULatency and FPLatency are execution latencies.
	ALULatency, FPLatency int64
}

// DefaultConfig mirrors the paper's Table 4 (Skylake-like): fetch 6,
// commit 4, 256-entry ROB.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        6,
		CommitWidth:       4,
		ROBSize:           256,
		MispredictPenalty: 12,
		ALULatency:        1,
		FPLatency:         4,
	}
}

// L2AccessFunc observes L2 demand accesses (the prefetcher training and
// bandit-step event stream).
type L2AccessFunc func(pc, addr uint64, hit bool, cycle int64)

// Core is one simulated core consuming one instruction trace.
//
// Execution is epoch-batched: the trace is pulled a Chunk at a time
// (trace.ChunkLen instructions) into a core-owned struct-of-arrays slab,
// and the window model runs a tight index loop over the slab — no
// interface dispatch or Inst copy per instruction. Spans without memory
// operations take a leaner pass still (see leanSpan): every observable
// event (L2 demand accesses, and through them bandit steps, telemetry
// windows, and fault activations) fires from loads and stores only, so
// memory-free spans are advanced without touching the hierarchy or the
// event hooks at all. Both loops share one copy of the window arithmetic
// (admit and commit); golden fingerprints in testdata pin the simulated
// results bit-for-bit.
type Core struct {
	cfg  Config
	hier *mem.Hierarchy
	gen  trace.Generator
	src  trace.ChunkSource

	cycle int64 // current dispatch cycle
	slot  int   // dispatch slots consumed this cycle
	insts int64

	rob      []int64 // retire cycles, ring buffer
	robHead  int
	robCount int

	lastRetire  int64 // retire cycle of the newest instruction
	retireCount int   // commits already assigned to lastRetire

	lastLoadDone int64 // completion of the most recent load (chase deps)

	chunk    trace.Chunk // current epoch's instruction slab
	chunkPos int         // instructions of chunk already simulated
	memIdx   int         // next chunk.Mem entry at or after chunkPos
	ffInsts  int64       // instructions advanced by the memory-free lean pass

	// phaseN is the stream position phase probes evaluate at: the number
	// of instructions the model has begun executing (insts+1 while an
	// instruction executes). Chunked generation runs ahead of it, so
	// Phase computes the phase from this count, never from generator
	// state.
	phaseN int64

	// latency is the execution latency of each non-memory kind: FP ops
	// take FPLatency, everything else ALULatency. It is indexed by
	// kind&7, which lets the compiler drop the bounds check.
	latency [8]int64
	// redirects holds FlagMispredict for KindBranch and 0 for every other
	// kind (same indexing), so only a mispredicted branch redirects fetch.
	redirects [8]uint8

	// OnL2Access, when set, is invoked for every L2 demand access.
	OnL2Access L2AccessFunc
}

// New builds a core over the given hierarchy and trace generator.
func New(cfg Config, hier *mem.Hierarchy, gen trace.Generator) *Core {
	if cfg.FetchWidth < 1 || cfg.CommitWidth < 1 || cfg.ROBSize < 1 {
		panic("cpu: widths and ROB size must be positive")
	}
	c := &Core{cfg: cfg, hier: hier, gen: gen, src: trace.SourceOf(gen),
		rob: make([]int64, cfg.ROBSize)}
	for k := range c.latency {
		c.latency[k] = cfg.ALULatency
	}
	c.latency[trace.KindFP] = cfg.FPLatency
	c.redirects[trace.KindBranch] = trace.FlagMispredict
	return c
}

// Hier returns the core's memory hierarchy.
func (c *Core) Hier() *mem.Hierarchy { return c.hier }

// Gen returns the core's trace generator, so drivers can reach optional
// generator capabilities. Phase probes must go through Core.Phase, not
// the generator's own state: chunked generation runs ahead of the
// simulated position.
func (c *Core) Gen() trace.Generator { return c.gen }

// Phase reports the program phase governing the instruction the model is
// executing (the context-signature input): PhaseAt of the stream
// position for phase-structured traces, else 0. It never reads generator
// state, which runs up to a chunk ahead of the simulation.
func (c *Core) Phase() int {
	if pa, ok := c.gen.(trace.PhaseAtter); ok {
		return pa.PhaseAt(c.phaseN)
	}
	return 0
}

// FFInsts returns the number of instructions advanced by the memory-free
// lean pass (the fast-forward coverage numerator).
func (c *Core) FFInsts() int64 { return c.ffInsts }

// ChunkCacheStats reports the trace source's memoized-chunk hit/miss
// counts when the source is cache-backed, else zeros.
func (c *Core) ChunkCacheStats() (hits, misses int64) {
	if cs, ok := c.gen.(trace.CacheStatser); ok {
		return cs.CacheStats()
	}
	return 0, 0
}

// Insts returns the number of simulated instructions.
func (c *Core) Insts() int64 { return c.insts }

// Cycles returns the elapsed cycles including the retirement of the
// youngest instruction.
func (c *Core) Cycles() int64 {
	if c.lastRetire > c.cycle {
		return c.lastRetire
	}
	return c.cycle
}

// IPC returns the cumulative instructions per cycle.
func (c *Core) IPC() float64 {
	cy := c.Cycles()
	if cy == 0 {
		return 0
	}
	return float64(c.insts) / float64(cy)
}

// RunInsts simulates n further instructions through the epoch-batched
// path: refill the slab when drained, then run the window model over the
// buffered span. Partial consumption is fine — the slab position
// persists across calls, so interleaved callers (RunCtx chunking,
// multi-core timestamp-ordered stepping) see the same stream.
func (c *Core) RunInsts(n int64) {
	for n > 0 {
		if c.chunkPos == c.chunk.Len() {
			c.chunk.Reset(trace.ChunkLen)
			c.src.NextChunk(&c.chunk)
			c.chunkPos, c.memIdx = 0, 0
		}
		k := int(n)
		if rem := c.chunk.Len() - c.chunkPos; k > rem {
			k = rem
		}
		c.runSpan(c.chunkPos, c.chunkPos+k)
		n -= int64(k)
	}
}

// runSpan simulates slab instructions [lo, hi), alternating memory-free
// lean spans with full memory steps. chunk.Mem partitions the span: an
// index absent from it is never a load or store, so everything between
// consecutive memory operations is safe to fast-forward.
func (c *Core) runSpan(lo, hi int) {
	mem := c.chunk.Mem
	i := lo
	for i < hi {
		next := hi
		if c.memIdx < len(mem) {
			if m := int(mem[c.memIdx]); m < hi {
				next = m
			}
		}
		if next > i {
			c.leanSpan(i, next)
			i = next
		}
		if i < hi {
			c.stepMemAt(i)
			c.memIdx++
			i++
		}
	}
	c.chunkPos = hi
}

// admit is the dispatch half of the window model, shared by every
// instruction: at most fetchWidth instructions dispatch per cycle, and a
// full ROB stalls dispatch until its head retires, which frees the head
// entry. It returns the dispatch cycle, the slots used in that cycle
// counting this instruction's, and the updated ROB head and occupancy.
func admit(cycle int64, slot, fetchWidth int, rob []int64, head, count int) (int64, int, int, int) {
	if slot >= fetchWidth {
		cycle++
		slot = 0
	}
	if count == len(rob) {
		if h := rob[head]; h > cycle {
			cycle = h
			slot = 0
		}
		head++
		if head == len(rob) {
			head = 0
		}
		count--
	}
	return cycle, slot + 1, head, count
}

// commit is the retire half of the window model: the instruction
// completing at complete retires in order, at most commitWidth per
// cycle, and takes the ROB tail entry. It returns its retire cycle, the
// number of commits already assigned to that cycle, and the new ROB
// occupancy. The update is written as maxes and conditional moves, so
// the host does not branch on the simulated timing.
func commit(complete, lastRetire int64, retireCount, commitWidth int, rob []int64, head, count int) (int64, int, int) {
	retire := max(complete, lastRetire)
	retireCount++
	if retire != lastRetire {
		retireCount = 1
	}
	var over int64
	if retireCount > commitWidth {
		over = 1
	}
	retire += over
	if over != 0 {
		retireCount = 1
	}
	tail := head + count
	if tail >= len(rob) {
		tail -= len(rob)
	}
	rob[tail] = retire
	return retire, retireCount, count + 1
}

// leanSpan fast-forwards the window model over slab instructions
// [lo, hi), none of which is a load or store. What is skipped is
// everything that cannot happen here — hierarchy accesses, load
// serialization, and the OnL2Access hook (so no bandit step, telemetry
// window, arm activation, or fault event can fire inside the span;
// mispredict redirects are pure window arithmetic and are handled in
// full). Latency and redirect come from per-kind tables, so the random
// FP/ALU/branch mix costs the host no mispredicted branches.
func (c *Core) leanSpan(lo, hi int) {
	kinds := c.chunk.Kind[:hi]
	flags := c.chunk.Flags[:hi]
	// Hoist the window state into locals: nothing inside the loop can
	// observe the fields, so the compiler is free of aliasing reloads and
	// the state lives in registers across the span.
	rob := c.rob
	cycle, slot := c.cycle, c.slot
	robHead, robCount := c.robHead, c.robCount
	lastRetire, retireCount := c.lastRetire, c.retireCount
	fetchWidth, commitWidth := c.cfg.FetchWidth, c.cfg.CommitWidth
	mispredict := c.cfg.MispredictPenalty
	latency, redirects := &c.latency, &c.redirects
	for i := lo; i < len(kinds); i++ {
		cycle, slot, robHead, robCount = admit(cycle, slot, fetchWidth, rob, robHead, robCount)
		k := kinds[i] & 7
		complete := cycle + latency[k]
		lastRetire, retireCount, robCount = commit(complete, lastRetire, retireCount, commitWidth, rob, robHead, robCount)
		if flags[i]&redirects[k] != 0 {
			// Fetch resumes after the branch resolves plus the refill
			// delay.
			if next := complete + mispredict; next > cycle {
				cycle = next
				slot = 0
			}
		}
	}
	c.cycle, c.slot = cycle, slot
	c.robHead, c.robCount = robHead, robCount
	c.lastRetire, c.retireCount = lastRetire, retireCount
	c.insts += int64(hi - lo)
	c.ffInsts += int64(hi - lo)
}

// stepMemAt dispatches, executes, and schedules retirement for the load
// or store at slab index i.
func (c *Core) stepMemAt(i int) {
	c.phaseN = c.insts + 1
	c.cycle, c.slot, c.robHead, c.robCount = admit(c.cycle, c.slot, c.cfg.FetchWidth, c.rob, c.robHead, c.robCount)
	dispatch := c.cycle

	var complete int64
	addr := c.chunk.Addr[i]
	if c.chunk.Kind[i] == trace.KindLoad {
		issue := dispatch
		if c.chunk.Flags[i]&trace.FlagDependsOnPrev != 0 && c.lastLoadDone > issue {
			issue = c.lastLoadDone // pointer chase serializes
		}
		res := c.hier.Access(addr, false, issue)
		complete = res.Done
		c.lastLoadDone = complete
		if res.L2Access && c.OnL2Access != nil {
			c.OnL2Access(c.chunk.PC[i], addr, res.L2Hit, issue)
		}
	} else {
		res := c.hier.Access(addr, true, dispatch)
		// Stores retire through the store buffer: the write completes in
		// the background and does not hold up commit.
		complete = dispatch + c.cfg.ALULatency
		if res.L2Access && c.OnL2Access != nil {
			c.OnL2Access(c.chunk.PC[i], addr, res.L2Hit, dispatch)
		}
	}

	c.lastRetire, c.retireCount, c.robCount = commit(complete, c.lastRetire, c.retireCount, c.cfg.CommitWidth, c.rob, c.robHead, c.robCount)
	c.insts++
}
