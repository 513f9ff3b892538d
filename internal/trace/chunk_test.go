package trace

import (
	"fmt"
	"testing"
)

// collectChunked drains n instructions from src through chunks of the
// given size, decoding back to scalar form.
func collectChunked(src ChunkSource, n, chunkSize int) []Inst {
	out := make([]Inst, 0, n)
	var c Chunk
	for len(out) < n {
		size := chunkSize
		if size > n-len(out) {
			size = n - len(out)
		}
		c.Reset(size)
		src.NextChunk(&c)
		var inst Inst
		for i := 0; i < size; i++ {
			c.Get(i, &inst)
			out = append(out, inst)
		}
	}
	return out
}

// diffStreams reports the first divergence between two instruction
// streams, or -1 when equal.
func diffStreams(a, b []Inst) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// checkChunkEquivalence asserts the chunked stream of mk() matches the
// scalar stream of an identically-constructed generator, for several
// chunk sizes including the degenerate and off-by-one ones.
func checkChunkEquivalence(t *testing.T, name string, n int, mk func() Generator) {
	t.Helper()
	want := CollectN(mk(), n)
	for _, size := range []int{1, 7, ChunkLen - 1, ChunkLen, n - 1, n} {
		if size <= 0 || size > n {
			continue
		}
		got := collectChunked(SourceOf(mk()), n, size)
		if i := diffStreams(want, got); i >= 0 {
			t.Fatalf("%s: chunk size %d diverges at instruction %d:\nscalar  %+v\nchunked %+v",
				name, size, i, want[i], got[i])
		}
	}
}

// TestChunkEquivalenceCatalog runs the differential harness over every
// registered catalog app: the chunked stream must be bit-identical to
// the scalar one at every chunk size.
func TestChunkEquivalenceCatalog(t *testing.T) {
	const n = 3*ChunkLen + 257
	for _, app := range Catalog() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			checkChunkEquivalence(t, app.Name, n, func() Generator { return app.New(9) })
		})
	}
}

// TestChunkEquivalencePhaseFlip pins mid-chunk phase boundaries: a
// PhaseGen whose phase length is far from any chunk-size multiple must
// switch parts at exactly the same instruction through both paths.
func TestChunkEquivalencePhaseFlip(t *testing.T) {
	mk := func() Generator {
		a := newGen("a", 3, Shape{ALUPerMem: 3, BranchFrac: 0.2, MispredictProb: 0.1, StoreFrac: 0.3},
			StreamPattern(2, 8, 16, 0))
		b := newGen("b", 4, Shape{ALUPerMem: 1, FPFrac: 0.5},
			ChasePattern(512, 1))
		return NewPhaseGen("flip", 151, a, b)
	}
	checkChunkEquivalence(t, "phase-flip", 4*ChunkLen, mk)

	// A phase length of 1 is the hardest boundary case: every
	// instruction comes from a different part.
	mk1 := func() Generator {
		a := newGen("a", 3, Shape{ALUPerMem: 2}, StreamPattern(1, 8, 16, 0))
		b := newGen("b", 4, Shape{ALUPerMem: 2}, StridePattern([]int{128}, 32, 1))
		return NewPhaseGen("flip1", 1, a, b)
	}
	checkChunkEquivalence(t, "phase-flip-1", 2048, mk1)
}

// TestChunkEquivalenceReplay covers the .mbt replay path: a Loop over a
// recorded slice must chunk identically to its scalar replay, including
// across the wrap-around.
func TestChunkEquivalenceReplay(t *testing.T) {
	app, err := ByName("lbm17")
	if err != nil {
		t.Fatal(err)
	}
	recorded := CollectN(app.New(5), 1000)
	checkChunkEquivalence(t, "replay", 3500, func() Generator {
		return NewLoop("replay", recorded)
	})
}

// TestChunkPhaseAt pins PhaseAt against the mutable Phase state: probing
// Phase after n scalar Next calls must equal PhaseAt(n).
func TestChunkPhaseAt(t *testing.T) {
	a := newGen("a", 3, Shape{ALUPerMem: 2}, StreamPattern(1, 8, 16, 0))
	b := newGen("b", 4, Shape{ALUPerMem: 2}, StridePattern([]int{64}, 32, 1))
	c := newGen("c", 5, Shape{ALUPerMem: 2}, ChasePattern(64, 2))
	p := NewPhaseGen("tri", 37, a, b, c)
	var inst Inst
	for n := int64(0); n < 500; n++ {
		if got, want := p.PhaseAt(n), p.Phase(); got != want {
			t.Fatalf("PhaseAt(%d) = %d, Phase() after %d calls = %d", n, got, n, want)
		}
		p.Next(&inst)
	}
}

// TestChunkSlabZeroAlloc pins the slab-reuse contract: once a chunk has
// been sized, refilling it allocates nothing.
func TestChunkSlabZeroAlloc(t *testing.T) {
	app, err := ByName("lbm17")
	if err != nil {
		t.Fatal(err)
	}
	src := SourceOf(app.New(1))
	var c Chunk
	c.Reset(ChunkLen)
	src.NextChunk(&c) // warm: Mem reaches its steady-state capacity
	allocs := testing.AllocsPerRun(20, func() {
		c.Reset(ChunkLen)
		src.NextChunk(&c)
	})
	if allocs != 0 {
		t.Fatalf("chunk refill allocates %.1f per run, want 0", allocs)
	}
}

// FuzzChunkEquivalence drives the differential harness with fuzzed app
// choice, seed, stream length, and chunk size, so odd alignments between
// chunk boundaries, phase boundaries, and filler runs get explored
// beyond the fixed seed cases.
func FuzzChunkEquivalence(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(2000), uint16(1))
	f.Add(uint8(3), uint64(7), uint16(5000), uint16(7))
	f.Add(uint8(10), uint64(42), uint16(9000), uint16(ChunkLen-1))
	f.Add(uint8(200), uint64(9), uint16(3000), uint16(513))
	f.Fuzz(func(t *testing.T, appIdx uint8, seed uint64, n uint16, chunkSize uint16) {
		apps := Catalog()
		app := apps[int(appIdx)%len(apps)]
		insts := int(n)%10000 + 1
		size := int(chunkSize)%ChunkLen + 1
		want := CollectN(app.New(seed), insts)
		got := collectChunked(SourceOf(app.New(seed)), insts, size)
		if i := diffStreams(want, got); i >= 0 {
			t.Fatalf("%s seed %d: chunk size %d diverges at %d: scalar %+v chunked %+v",
				app.Name, seed, size, i, want[i], got[i])
		}
	})
}

// TestChunkSetGetRoundTrip pins the slab codec: Set then Get must be the
// identity for every kind/flag combination.
func TestChunkSetGetRoundTrip(t *testing.T) {
	insts := []Inst{
		{PC: 1, Kind: KindALU},
		{PC: 2, Kind: KindFP},
		{PC: 3, Kind: KindBranch, Mispredict: true},
		{PC: 4, Addr: 0x1000, Kind: KindLoad, DependsOnPrev: true},
		{PC: 5, Addr: 0x2000, Kind: KindStore},
	}
	var c Chunk
	c.Reset(len(insts))
	for i := range insts {
		c.Set(i, &insts[i])
	}
	var got Inst
	for i := range insts {
		c.Get(i, &got)
		if got != insts[i] {
			t.Fatalf("index %d: got %+v want %+v", i, got, insts[i])
		}
	}
	if fmt.Sprint(c.Mem) != "[3 4]" {
		t.Fatalf("Mem = %v, want [3 4]", c.Mem)
	}
}

// BenchmarkChunkFill measures the native fill kernel per instruction on a
// compute-dense app (mostly filler), a memory-dense one and a pointer
// chase.
func BenchmarkChunkFill(b *testing.B) {
	for _, name := range []string{"cactuBSSN", "lbm17", "canneal"} {
		b.Run(name, func(b *testing.B) {
			app, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			src := SourceOf(app.New(1))
			var c Chunk
			c.Reset(ChunkLen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.NextChunk(&c)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ChunkLen), "ns/inst")
		})
	}
}
