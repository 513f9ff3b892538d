package trace

import (
	"slices"

	"microbandit/internal/xrand"
)

// Shape controls the instruction mix wrapped around a memory-access
// pattern: how many non-memory instructions separate memory operations,
// and what those filler instructions look like.
type Shape struct {
	// ALUPerMem is the number of non-memory instructions between
	// consecutive memory operations (memory intensity knob).
	ALUPerMem int
	// FPFrac is the fraction of filler instructions that are
	// long-latency FP ops.
	FPFrac float64
	// BranchFrac is the fraction of filler instructions that are
	// branches.
	BranchFrac float64
	// MispredictProb is the probability a branch is mispredicted.
	MispredictProb float64
	// StoreFrac is the fraction of memory operations that are stores.
	StoreFrac float64
	// CodeFootprint is the number of distinct filler PCs (instruction
	// working set; large values model front-end-heavy server code).
	CodeFootprint int
}

// memFunc fills the PC / Addr / DependsOnPrev fields of a memory
// instruction; the surrounding machinery decides load vs store.
type memFunc func(rng *xrand.Rand, i *Inst)

// gen wraps a memory-access pattern in a Shape-defined instruction mix.
type gen struct {
	name       string
	rng        *xrand.Rand
	shape      Shape
	mem        memFunc
	coins      shapeCoins
	fillerLeft int
	fillerIdx  int

	// scratch is the decode target handed to mem during chunk fills;
	// keeping it in the struct stops the pointer escaping through the
	// memFunc call (one heap allocation per memory op otherwise).
	scratch Inst
}

// newGen builds a generator around the given memory pattern.
func newGen(name string, seed uint64, shape Shape, mem memFunc) *gen {
	if shape.CodeFootprint < 1 {
		shape.CodeFootprint = 64
	}
	return &gen{name: name, rng: xrand.New(seed), shape: shape, mem: mem,
		coins: coinsOf(shape)}
}

// shapeCoins holds a Shape's probabilities as precomputed coins for the
// chunk fill kernel; Next flips the same probabilities with Bool.
type shapeCoins struct {
	branch, mispredict, fp, store xrand.Coin
}

// coinsOf precomputes the coins of a Shape.
func coinsOf(s Shape) shapeCoins {
	return shapeCoins{
		branch:     xrand.NewCoin(s.BranchFrac),
		mispredict: xrand.NewCoin(s.MispredictProb),
		fp:         xrand.NewCoin(s.FPFrac),
		store:      xrand.NewCoin(s.StoreFrac),
	}
}

// Name implements Generator.
func (g *gen) Name() string { return g.name }

// fillerPCBase is where synthetic code addresses start.
const fillerPCBase = 0x400000

// Next implements Generator.
func (g *gen) Next(i *Inst) {
	*i = Inst{}
	if g.fillerLeft > 0 {
		g.fillerLeft--
		i.PC = fillerPCBase + uint64(g.fillerIdx)*4
		// fillerIdx stays below CodeFootprint, so a compare-and-reset
		// wrap replaces the integer division of a modulo here — this
		// runs once per generated instruction.
		g.fillerIdx++
		if g.fillerIdx == g.shape.CodeFootprint {
			g.fillerIdx = 0
		}
		switch {
		case g.rng.Bool(g.shape.BranchFrac):
			i.Kind = KindBranch
			i.Mispredict = g.rng.Bool(g.shape.MispredictProb)
		case g.rng.Bool(g.shape.FPFrac):
			i.Kind = KindFP
		default:
			i.Kind = KindALU
		}
		return
	}
	g.fillerLeft = g.shape.ALUPerMem
	g.mem(g.rng, i)
	if g.rng.Bool(g.shape.StoreFrac) {
		i.Kind = KindStore
		i.DependsOnPrev = false
	} else {
		i.Kind = KindLoad
	}
}

// regionStride spaces the synthetic data regions far apart so patterns
// never alias.
const regionStride = 1 << 40

// dataBase returns the base address of data region idx.
func dataBase(idx int) uint64 { return 0x10_0000_0000 + uint64(idx)*regionStride }

// StreamPattern models sequential streaming over several concurrent
// regions: the pattern next-line and stream prefetchers love. Each access
// advances within a line by elemBytes, crossing into the next line every
// LineSize/elemBytes accesses; after streamLines lines, the stream jumps
// to a fresh region offset (stream re-detection work for the prefetcher).
func StreamPattern(nStreams, elemBytes, streamLines int, region int) memFunc {
	if elemBytes <= 0 {
		elemBytes = 8
	}
	type stream struct {
		pc   uint64
		pos  uint64
		base uint64
		next uint64 // next fresh chunk offset
	}
	streams := make([]stream, nStreams)
	for s := range streams {
		streams[s] = stream{
			pc:   fillerPCBase + 0x10000 + uint64(s)*4,
			base: dataBase(region) + uint64(s)*(regionStride/64),
		}
	}
	span := uint64(streamLines * LineSize)
	return func(rng *xrand.Rand, i *Inst) {
		s := &streams[rng.Intn(nStreams)]
		i.PC = s.pc
		i.Addr = s.base + s.next + s.pos
		s.pos += uint64(elemBytes)
		if s.pos >= span {
			s.pos = 0
			s.next += span + 16*LineSize // gap breaks naive next-line
		}
	}
}

// StridePattern models per-PC constant-stride access (the classic
// IP-stride target). Each of nPCs walks its own region with its own
// stride in bytes; strides larger than a line defeat next-line prefetching
// but are trivial for a stride prefetcher that has learned the PC.
func StridePattern(strides []int, lapLines int, region int) memFunc {
	type walker struct {
		pc     uint64
		pos    uint64
		stride uint64
		base   uint64
	}
	walkers := make([]walker, len(strides))
	for w := range walkers {
		walkers[w] = walker{
			pc:     fillerPCBase + 0x20000 + uint64(w)*4,
			stride: uint64(strides[w]),
			base:   dataBase(region) + uint64(w)*(regionStride/64),
		}
	}
	span := uint64(lapLines * LineSize)
	return func(rng *xrand.Rand, i *Inst) {
		w := &walkers[rng.Intn(len(walkers))]
		i.PC = w.pc
		i.Addr = w.base + w.pos
		w.pos += w.stride
		if w.pos >= span {
			w.pos = 0
			w.base += span + 64*LineSize
		}
	}
}

// ChasePattern models pointer chasing over a random ring permutation of
// wsLines cache lines: every access is a dependent load to an effectively
// random line. Spatial prefetchers gain almost nothing; aggressive
// prefetching only burns bandwidth.
func ChasePattern(wsLines int, region int) memFunc {
	order := chaseOrder(wsLines, uint64(region)*977+13)
	pos := 0
	base := dataBase(region)
	pc := uint64(fillerPCBase + 0x30000)
	return func(rng *xrand.Rand, i *Inst) {
		cur := order[pos]
		if pos++; pos == len(order) {
			pos = 0
		}
		i.PC = pc
		i.Addr = base + uint64(cur)*LineSize
		i.DependsOnPrev = true
	}
}

// chaseOrder returns the order in which a pointer chase that starts at
// line 0 visits the lines of [0,n): a random single cycle (Sattolo's
// algorithm), rotated to begin with line 0's successor and end with
// line 0, so the chase reads it front to back instead of following a
// successor array with a dependent random load per access. The array is
// int32, half the footprint (line indices are nowhere near 2^31).
func chaseOrder(n int, seed uint64) []int32 {
	rng := xrand.New(seed)
	items := make([]int32, n)
	for i := range items {
		items[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		items[i], items[j] = items[j], items[i]
	}
	// items is a cyclic order; rotate it left past line 0.
	k := slices.Index(items, 0) + 1
	slices.Reverse(items[:k])
	slices.Reverse(items[k:])
	slices.Reverse(items)
	return items
}

// GatherPattern models index-driven gathers (Ligra-style graph kernels):
// a sequential index stream interleaved with random accesses over a large
// vertex array. The index stream is prefetchable; the gathers are not.
func GatherPattern(wsLines int, gathersPerIndex int, region int) memFunc {
	idxPos := uint64(0)
	idxBase := dataBase(region)
	dataBase := dataBase(region) + regionStride/2
	pending := 0
	pcIdx := uint64(fillerPCBase + 0x40000)
	pcGather := uint64(fillerPCBase + 0x40004)
	return func(rng *xrand.Rand, i *Inst) {
		if pending == 0 {
			i.PC = pcIdx
			i.Addr = idxBase + idxPos
			idxPos += 8
			pending = gathersPerIndex
			return
		}
		pending--
		i.PC = pcGather
		i.Addr = dataBase + uint64(rng.Intn(wsLines))*LineSize
	}
}

// ServerPattern models scale-out server behaviour (CloudSuite): a hot set
// of lines with high reuse plus a vast cold footprint, accessed with
// little spatial structure, under a large code footprint (set via Shape).
func ServerPattern(hotLines, coldLines int, hotProb float64, region int) memFunc {
	hotBase := dataBase(region)
	coldBase := dataBase(region) + regionStride/2
	pcHot := uint64(fillerPCBase + 0x50000)
	pcCold := uint64(fillerPCBase + 0x50004)
	return func(rng *xrand.Rand, i *Inst) {
		if rng.Bool(hotProb) {
			i.PC = pcHot
			i.Addr = hotBase + uint64(rng.Intn(hotLines))*LineSize
		} else {
			i.PC = pcCold
			i.Addr = coldBase + uint64(rng.Intn(coldLines))*LineSize
		}
	}
}

// MixPattern selects among component patterns with the given weights on
// each memory operation, modelling applications with several concurrent
// access idioms.
func MixPattern(weights []float64, parts ...memFunc) memFunc {
	if len(weights) != len(parts) {
		panic("trace: MixPattern weights/parts mismatch")
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	return func(rng *xrand.Rand, i *Inst) {
		x := rng.Float64() * total
		for k, w := range weights {
			if x < w || k == len(parts)-1 {
				parts[k](rng, i)
				return
			}
			x -= w
		}
	}
}

// PhaseGen alternates between whole sub-generators every phaseLen
// instructions, modelling coarse program phases (the mcf behaviour in
// Fig. 7). Sub-generator state persists across phases.
type PhaseGen struct {
	name     string
	parts    []Generator
	fillers  []chunkFiller
	phaseLen int
	pos      int
	cur      int
}

// NewPhaseGen builds a phase-switching generator. phaseLen must be
// positive and at least one part is required.
func NewPhaseGen(name string, phaseLen int, parts ...Generator) *PhaseGen {
	if len(parts) == 0 {
		panic("trace: PhaseGen needs at least one part")
	}
	if phaseLen < 1 {
		panic("trace: PhaseGen needs a positive phase length")
	}
	fillers := make([]chunkFiller, len(parts))
	for i, p := range parts {
		fillers[i] = fillerOf(p)
	}
	return &PhaseGen{name: name, parts: parts, fillers: fillers, phaseLen: phaseLen}
}

// Name implements Generator.
func (p *PhaseGen) Name() string { return p.name }

// Next implements Generator.
func (p *PhaseGen) Next(i *Inst) {
	p.parts[p.cur].Next(i)
	p.pos++
	if p.pos == p.phaseLen {
		p.pos = 0
		p.cur = (p.cur + 1) % len(p.parts)
	}
}

// Phase returns the index of the currently active sub-generator.
func (p *PhaseGen) Phase() int { return p.cur }

// PhaseAt implements PhaseAtter: the phase governing instruction n, as a
// pure function of the stream position. Under chunked execution the
// mutable phase state (Phase) runs up to a chunk ahead of the
// simulation, so phase probes use this instead.
func (p *PhaseGen) PhaseAt(n int64) int {
	return int((n / int64(p.phaseLen)) % int64(len(p.parts)))
}
