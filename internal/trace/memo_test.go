package trace

import (
	"sync"
	"testing"
)

// memoApp returns a phase-structured catalog generator (the hardest
// case: composite state plus PhaseAt forwarding).
func memoApp(t *testing.T, seed uint64) Generator {
	t.Helper()
	app, err := ByName("mcf17")
	if err != nil {
		t.Fatal(err)
	}
	return app.New(seed)
}

// TestChunkCacheEquivalence pins the memoized stream against the plain
// one through every stage of a key's life — cold (first reader, stores
// nothing), populate (second reader, stores), warm (replays) — and
// through both the chunked and scalar read paths.
func TestChunkCacheEquivalence(t *testing.T) {
	const n = 3*ChunkLen + 100
	want := CollectN(memoApp(t, 5), n)

	cc := NewChunkCache(0)
	cold := collectChunked(SourceOf(cc.Source("mcf17:5", memoApp(t, 5))), n, ChunkLen)
	if i := diffStreams(want, cold); i >= 0 {
		t.Fatalf("cold run diverges at %d", i)
	}
	if used := cc.BytesUsed(); used != 0 {
		t.Fatalf("first reader stored %d bytes, want 0", used)
	}
	populate := collectChunked(SourceOf(cc.Source("mcf17:5", memoApp(t, 5))), n, ChunkLen)
	if i := diffStreams(want, populate); i >= 0 {
		t.Fatalf("populating run diverges at %d", i)
	}
	if used := cc.BytesUsed(); used == 0 {
		t.Fatal("second reader stored nothing")
	}
	warm := collectChunked(SourceOf(cc.Source("mcf17:5", memoApp(t, 5))), n, ChunkLen)
	if i := diffStreams(want, warm); i >= 0 {
		t.Fatalf("warm run diverges at %d", i)
	}
	scalar := CollectN(cc.Source("mcf17:5", memoApp(t, 5)), n)
	if i := diffStreams(want, scalar); i >= 0 {
		t.Fatalf("scalar replay diverges at %d", i)
	}

	hits, misses := cc.Stats()
	// The cold and populating runs each miss all 4 chunks (three full +
	// the 100-instruction tail). The warm run requests the same sizes and
	// hits all 4. The scalar replay reads full slabs only, so its final
	// slab's size mismatches the stored 100-instruction tail: 3 hits,
	// 1 miss.
	if misses != 9 {
		t.Fatalf("misses = %d, want 9", misses)
	}
	if hits != 7 {
		t.Fatalf("hits = %d, want 7", hits)
	}
	if hr := cc.HitRate(); hr != 7.0/16 {
		t.Fatalf("hit rate = %v, want 7/16", hr)
	}
}

// TestChunkCacheSingleReaderStoresNothing pins admission on reuse: a key
// read by one source copies no chunk into the cache, and that source's
// steady-state live path allocates nothing.
func TestChunkCacheSingleReaderStoresNothing(t *testing.T) {
	cc := NewChunkCache(0)
	src := SourceOf(cc.Source("mcf17:5", memoApp(t, 5)))
	var c Chunk
	for i := 0; i < 8; i++ {
		c.Reset(ChunkLen)
		src.NextChunk(&c)
	}
	allocs := testing.AllocsPerRun(8, func() {
		c.Reset(ChunkLen)
		src.NextChunk(&c)
	})
	if allocs != 0 {
		t.Fatalf("single-reader NextChunk allocates %.1f per run, want 0", allocs)
	}
	if used := cc.BytesUsed(); used != 0 {
		t.Fatalf("single reader stored %d bytes, want 0", used)
	}
	// 8 warm-up reads, then AllocsPerRun's warm-up call and its 8 runs.
	if hits, misses := cc.Stats(); hits != 0 || misses != 17 {
		t.Fatalf("stats = %d hits, %d misses; want 0, 17", hits, misses)
	}
}

// TestChunkCacheConcurrentOpen pins admission when two sources are
// opened on one key before either reads: the later one stores, the
// earlier one does not, both streams stay bit-identical, and the cache
// holds at most one copy of the trace.
func TestChunkCacheConcurrentOpen(t *testing.T) {
	const n = 6 * ChunkLen
	want := CollectN(memoApp(t, 5), n)

	// One trace's worth: what a sequential second reader stores.
	ref := NewChunkCache(0)
	for run := 0; run < 2; run++ {
		collectChunked(SourceOf(ref.Source("mcf17:5", memoApp(t, 5))), n, ChunkLen)
	}
	oneTrace := ref.BytesUsed()
	if oneTrace == 0 {
		t.Fatal("sequential second reader stored nothing")
	}

	cc := NewChunkCache(0)
	srcs := []ChunkSource{
		SourceOf(cc.Source("mcf17:5", memoApp(t, 5))),
		SourceOf(cc.Source("mcf17:5", memoApp(t, 5))),
	}
	got := make([][]Inst, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = collectChunked(src, n, ChunkLen)
		}()
	}
	wg.Wait()
	for i := range got {
		if d := diffStreams(want, got[i]); d >= 0 {
			t.Fatalf("source %d diverges at %d", i, d)
		}
	}
	if used := cc.BytesUsed(); used == 0 || used > oneTrace {
		t.Fatalf("cache holds %d bytes, want (0, %d]", used, oneTrace)
	}
}

// TestChunkCacheKeysIsolate pins key isolation: two keys over different
// seeds must never replay each other's chunks.
func TestChunkCacheKeysIsolate(t *testing.T) {
	const n = ChunkLen * 2
	cc := NewChunkCache(0)
	got5 := collectChunked(SourceOf(cc.Source("mcf17:5", memoApp(t, 5))), n, ChunkLen)
	got9 := collectChunked(SourceOf(cc.Source("mcf17:9", memoApp(t, 9))), n, ChunkLen)
	if i := diffStreams(CollectN(memoApp(t, 5), n), got5); i >= 0 {
		t.Fatalf("seed 5 diverges at %d", i)
	}
	if i := diffStreams(CollectN(memoApp(t, 9), n), got9); i >= 0 {
		t.Fatalf("seed 9 diverges at %d", i)
	}
}

// TestChunkCacheBudgetFallback pins the bounded-cache contract: with a
// budget too small to hold the trace, runs stay bit-identical (live
// generation with catch-up through the resident prefix) and the
// footprint respects the budget.
func TestChunkCacheBudgetFallback(t *testing.T) {
	const n = 6 * ChunkLen
	want := CollectN(memoApp(t, 5), n)
	// Budget for roughly two slabs: the rest of the stream must fall
	// back to live generation.
	cc := NewChunkCache(2 * 80 * ChunkLen / 4)
	for run := 0; run < 3; run++ {
		got := collectChunked(SourceOf(cc.Source("mcf17:5", memoApp(t, 5))), n, ChunkLen)
		if i := diffStreams(want, got); i >= 0 {
			t.Fatalf("run %d diverges at %d", run, i)
		}
	}
	if used := cc.BytesUsed(); used > 2*80*ChunkLen/4 {
		t.Fatalf("cache uses %d bytes, budget %d", used, 2*80*ChunkLen/4)
	}
	hits, _ := cc.Stats()
	if hits == 0 {
		t.Fatal("expected hits on the resident prefix")
	}
}

// TestChunkCacheConcurrent hammers one key from many goroutines; run
// under -race this pins the cache's synchronization, and every stream
// must come back bit-identical.
func TestChunkCacheConcurrent(t *testing.T) {
	const n = 4 * ChunkLen
	want := CollectN(memoApp(t, 5), n)
	cc := NewChunkCache(0)
	var wg sync.WaitGroup
	errs := make(chan int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := collectChunked(SourceOf(cc.Source("mcf17:5", memoApp(t, 5))), n, ChunkLen)
			if i := diffStreams(want, got); i >= 0 {
				errs <- i
			}
		}()
	}
	wg.Wait()
	close(errs)
	if i, bad := <-errs; bad {
		t.Fatalf("concurrent run diverged at %d", i)
	}
}

// TestChunkCacheHitZeroAlloc pins the memoized hit path: replaying a
// resident chunk into a warmed slab allocates nothing.
func TestChunkCacheHitZeroAlloc(t *testing.T) {
	cc := NewChunkCache(0)
	const resident = 30
	// Open the key once so the next reader stores, then populate while
	// warming a slab through every resident chunk so its Mem capacity
	// reaches the entry's high-water mark.
	cc.Source("mcf17:5", memoApp(t, 5))
	var c Chunk
	warm := SourceOf(cc.Source("mcf17:5", memoApp(t, 5)))
	for i := 0; i < resident; i++ {
		c.Reset(ChunkLen)
		warm.NextChunk(&c)
	}

	// The measured source stays within the resident range: pure hits.
	src := SourceOf(cc.Source("mcf17:5", memoApp(t, 5)))
	allocs := testing.AllocsPerRun(resident-2, func() {
		c.Reset(ChunkLen)
		src.NextChunk(&c)
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f per run, want 0", allocs)
	}
}

// TestChunkCachePhaseForwarding pins PhaseAt delegation through the
// cache wrapper, and phase-0 reporting for non-phase generators.
func TestChunkCachePhaseForwarding(t *testing.T) {
	cc := NewChunkCache(0)
	phased := cc.Source("mcf17:5", memoApp(t, 5))
	pa, ok := phased.(PhaseAtter)
	if !ok {
		t.Fatal("cached source does not forward PhaseAt")
	}
	inner := memoApp(t, 5).(PhaseAtter)
	for _, n := range []int64{0, 1, 1_499_999, 1_500_000, 3_000_000} {
		if got, want := pa.PhaseAt(n), inner.PhaseAt(n); got != want {
			t.Fatalf("PhaseAt(%d) = %d, want %d", n, got, want)
		}
	}

	app, err := ByName("lbm17")
	if err != nil {
		t.Fatal(err)
	}
	flat := cc.Source("lbm17:5", app.New(5))
	if got := flat.(PhaseAtter).PhaseAt(1_000_000); got != 0 {
		t.Fatalf("non-phase source PhaseAt = %d, want 0", got)
	}
}
