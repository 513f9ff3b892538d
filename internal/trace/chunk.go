package trace

import "microbandit/internal/xrand"

// Epoch-batched trace production. The per-instruction Generator.Next
// interface call is the simulator's innermost edge: one dynamic dispatch
// and one Inst copy per simulated instruction. A Chunk is a
// struct-of-arrays slab of instructions that a ChunkSource fills in one
// call, so the core model can run a tight index loop over parallel
// arrays instead. Every source is required to produce a stream
// bit-identical to its scalar Next stream (pinned by the differential
// tests and fuzz target in chunk_test.go).

// ChunkLen is the canonical epoch length in instructions. The core model
// requests chunks of this size and the memoized chunk cache stores them
// at this granularity, so cached entries line up across consumers. 1Ki
// instructions keeps a slab around 18 KiB — small enough to stay resident
// in the host L1/L2 alongside the simulated cache arrays (measurably
// faster than 4Ki on the streaming workloads) — and bounds how far
// generators run ahead of the simulated instruction count.
const ChunkLen = 1024

// Chunk flag bits (Flags array), mirroring Inst's booleans.
const (
	// FlagMispredict marks a mispredicted branch.
	FlagMispredict uint8 = 1 << 0
	// FlagDependsOnPrev marks a load serialized behind the previous load.
	FlagDependsOnPrev uint8 = 1 << 1
)

// Chunk is a struct-of-arrays instruction slab: element i of each array
// describes instruction i. Mem lists the indices of loads and stores in
// ascending order, so a consumer can iterate memory operations directly
// and treat the gaps as memory-free spans (the fast-forward invariant:
// an index absent from Mem is never a load or store).
type Chunk struct {
	// PC holds instruction addresses.
	PC []uint64
	// Addr holds load/store byte addresses (0 for non-memory kinds).
	Addr []uint64
	// Kind holds instruction kinds.
	Kind []Kind
	// Flags holds per-instruction flag bits.
	Flags []uint8
	// Mem holds the ascending indices of KindLoad/KindStore entries.
	Mem []int32
}

// Len returns the number of instructions in the chunk.
func (c *Chunk) Len() int { return len(c.PC) }

// Reset sizes the chunk to n instructions and clears the memory-op
// index, reusing existing capacity. Callers size the slab once and hand
// it to NextChunk repeatedly; no per-epoch allocation remains after the
// first call.
func (c *Chunk) Reset(n int) {
	if cap(c.PC) < n {
		c.PC = make([]uint64, n)
		c.Addr = make([]uint64, n)
		c.Kind = make([]Kind, n)
		c.Flags = make([]uint8, n)
	} else {
		c.PC = c.PC[:n]
		c.Addr = c.Addr[:n]
		c.Kind = c.Kind[:n]
		c.Flags = c.Flags[:n]
	}
	c.Mem = c.Mem[:0]
}

// Set stores one scalar instruction at index i, maintaining Mem. Indices
// must be filled in ascending order for Mem to stay sorted.
func (c *Chunk) Set(i int, in *Inst) {
	c.PC[i] = in.PC
	c.Addr[i] = in.Addr
	c.Kind[i] = in.Kind
	var fl uint8
	if in.Mispredict {
		fl |= FlagMispredict
	}
	if in.DependsOnPrev {
		fl |= FlagDependsOnPrev
	}
	c.Flags[i] = fl
	if in.Kind == KindLoad || in.Kind == KindStore {
		c.Mem = append(c.Mem, int32(i))
	}
}

// Get decodes the instruction at index i back into scalar form.
func (c *Chunk) Get(i int, out *Inst) {
	out.PC = c.PC[i]
	out.Addr = c.Addr[i]
	out.Kind = c.Kind[i]
	out.Mispredict = c.Flags[i]&FlagMispredict != 0
	out.DependsOnPrev = c.Flags[i]&FlagDependsOnPrev != 0
}

// CopyFrom makes c an exact copy of src, reusing c's capacity.
func (c *Chunk) CopyFrom(src *Chunk) {
	c.Reset(src.Len())
	copy(c.PC, src.PC)
	copy(c.Addr, src.Addr)
	copy(c.Kind, src.Kind)
	copy(c.Flags, src.Flags)
	c.Mem = append(c.Mem, src.Mem...)
}

// Bytes returns the slab's approximate memory footprint, the unit of the
// chunk cache's byte budget.
func (c *Chunk) Bytes() int64 {
	return int64(c.Len())*18 + int64(cap(c.Mem))*4
}

// ChunkSource produces the generator's instruction stream a chunk at a
// time. NextChunk fills all c.Len() slots (the caller sizes the slab via
// Reset) and rebuilds c.Mem; successive calls continue the stream.
type ChunkSource interface {
	// Name identifies the workload, matching the scalar generator.
	Name() string
	// NextChunk fills the caller-owned slab with the next c.Len()
	// instructions of the stream.
	NextChunk(c *Chunk)
}

// PhaseAtter reports the program phase as a pure function of the
// simulated instruction count. Under chunked execution a generator's
// internal state runs up to a chunk ahead of the simulation, so phase
// probes must not read mutable generator state; PhaseAt(n) answers "which
// phase governs instruction n" for any n regardless of how far
// generation has advanced.
type PhaseAtter interface {
	PhaseAt(n int64) int
}

// chunkFiller is the internal range-fill capability native sources
// implement: fill instructions [lo, hi) of c, appending to c.Mem. It
// exists so composite generators (PhaseGen) can batch sub-generator
// output into slices of one slab.
type chunkFiller interface {
	fillChunk(c *Chunk, lo, hi int)
}

// SourceOf returns g's chunked view: g itself when it implements
// ChunkSource natively, otherwise a scalar adapter that drains Next into
// the slab. The adapter is bit-identical by construction; native
// implementations are pinned by the differential tests.
func SourceOf(g Generator) ChunkSource {
	if cs, ok := g.(ChunkSource); ok {
		return cs
	}
	return &scalarSource{g: g}
}

// fillerOf returns g's range-fill view, wrapping non-native generators
// in the scalar adapter.
func fillerOf(g Generator) chunkFiller {
	if f, ok := g.(chunkFiller); ok {
		return f
	}
	return &scalarSource{g: g}
}

// scalarSource adapts any Generator to ChunkSource one Next at a time.
// The scratch instruction lives in the struct so the pointer handed
// through the interface does not force a per-call heap allocation.
type scalarSource struct {
	g       Generator
	scratch Inst
}

// Name implements ChunkSource.
func (s *scalarSource) Name() string { return s.g.Name() }

// NextChunk implements ChunkSource.
func (s *scalarSource) NextChunk(c *Chunk) { s.fillChunk(c, 0, c.Len()) }

// fillChunk implements chunkFiller.
func (s *scalarSource) fillChunk(c *Chunk, lo, hi int) {
	for i := lo; i < hi; i++ {
		s.g.Next(&s.scratch)
		c.Set(i, &s.scratch)
	}
}

// NextChunk implements ChunkSource natively for the Shape-mix generator:
// the same stream as Next, filled straight into the slab with no
// interface dispatch and no Inst copies for filler instructions.
func (g *gen) NextChunk(c *Chunk) { g.fillChunk(c, 0, c.Len()) }

// fillerKinds maps a filler's two coin outcomes (is it a branch, did the
// second coin hit) to its kind: a branch whatever the second coin says,
// else FP on a hit and ALU otherwise.
var fillerKinds = [4]Kind{KindALU, KindFP, KindBranch, KindBranch}

// fillChunk implements chunkFiller. It draws the same words in the same
// order as Next, so the streams are bit-identical (pinned by the
// differential tests and the golden chunk hashes), but it is written so
// the host does not branch on the simulated instruction mix: the coins
// are integer thresholds, the xoshiro state stays in registers across
// each run of filler instructions (it is written back before every
// memFunc call, which draws from the same generator), and the filler
// kind is a table lookup on the coin outcomes.
func (g *gen) fillChunk(c *Chunk, lo, hi int) {
	pcs, addrs, kinds, flags := c.PC[:hi], c.Addr[:hi], c.Kind[:hi], c.Flags[:hi]
	coins := g.coins
	footprint := g.shape.CodeFootprint
	left, idx := g.fillerLeft, g.fillerIdx
	st := g.rng.State()
	s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
	for i := lo; i < hi; {
		if left > 0 {
			// A run of filler instructions, up to the next memory op or
			// the end of the range.
			end := min(hi, i+left)
			left -= end - i
			for ; i < end; i++ {
				pcs[i] = fillerPCBase + uint64(idx)*4
				addrs[i] = 0
				idx++
				if idx == footprint {
					idx = 0
				}
				var u uint64
				if coins.branch.Draws() {
					u, s0, s1, s2, s3 = xrand.Step(s0, s1, s2, s3)
				}
				var br uint8
				if coins.branch.Hit(u) {
					br = 1
				}
				// Next flips the mispredict coin after a branch and the
				// FP coin otherwise; selecting the coin is a conditional
				// move.
				second := coins.fp
				if br != 0 {
					second = coins.mispredict
				}
				u = 0
				if second.Draws() {
					u, s0, s1, s2, s3 = xrand.Step(s0, s1, s2, s3)
				}
				var hit uint8
				if second.Hit(u) {
					hit = 1
				}
				kinds[i] = fillerKinds[(br<<1|hit)&3]
				flags[i] = (br & hit) * FlagMispredict
			}
			continue
		}
		left = g.shape.ALUPerMem
		g.rng.SetState([4]uint64{s0, s1, s2, s3})
		g.scratch = Inst{}
		g.mem(g.rng, &g.scratch)
		st = g.rng.State()
		s0, s1, s2, s3 = st[0], st[1], st[2], st[3]
		pcs[i] = g.scratch.PC
		addrs[i] = g.scratch.Addr
		var u uint64
		if coins.store.Draws() {
			u, s0, s1, s2, s3 = xrand.Step(s0, s1, s2, s3)
		}
		kind, fl := KindLoad, uint8(0)
		if g.scratch.DependsOnPrev {
			fl = FlagDependsOnPrev
		}
		if coins.store.Hit(u) {
			kind, fl = KindStore, 0
		}
		kinds[i] = kind
		flags[i] = fl
		c.Mem = append(c.Mem, int32(i))
		i++
	}
	g.fillerLeft, g.fillerIdx = left, idx
	g.rng.SetState([4]uint64{s0, s1, s2, s3})
}

// NextChunk implements ChunkSource natively for PhaseGen by slicing the
// slab into per-phase sub-ranges and letting each part fill its range.
func (p *PhaseGen) NextChunk(c *Chunk) { p.fillChunk(c, 0, c.Len()) }

// fillChunk implements chunkFiller, advancing the phase state exactly as
// the scalar path does: pos counts instructions within the current
// phase, switching parts every phaseLen.
func (p *PhaseGen) fillChunk(c *Chunk, lo, hi int) {
	i := lo
	for i < hi {
		span := p.phaseLen - p.pos
		if span > hi-i {
			span = hi - i
		}
		p.fillers[p.cur].fillChunk(c, i, i+span)
		p.pos += span
		i += span
		if p.pos == p.phaseLen {
			p.pos = 0
			p.cur = (p.cur + 1) % len(p.parts)
		}
	}
}

// NextChunk implements ChunkSource natively for the replay Loop.
func (l *Loop) NextChunk(c *Chunk) { l.fillChunk(c, 0, c.Len()) }

// fillChunk implements chunkFiller, wrapping around the recorded slice
// exactly as scalar replay does.
func (l *Loop) fillChunk(c *Chunk, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.Set(i, &l.insts[l.pos])
		l.pos++
		if l.pos == len(l.insts) {
			l.pos = 0
		}
	}
}
