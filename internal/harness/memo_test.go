package harness

import (
	"testing"

	"microbandit/internal/trace"
)

// TestChunkCacheInvariant pins the shared-cache contract: enabling the
// chunk cache changes no output byte, and the effectiveness counters
// report its activity. fig8 derives a distinct trace seed per run, so
// one report reads each key once; repeating it walks every key through
// admission on reuse: the cold run stores nothing, the second run
// populates, and the third replays chunks instead of regenerating them.
// The cached runs use Workers=8 so the cache is exercised concurrently
// (meaningful under -race).
func TestChunkCacheInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const id = "fig8"
	plain := smokeDeterminism()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	textPlain, csvPlain := e.Run(plain)

	cached := smokeDeterminism()
	cached.Workers = 8
	cached.ChunkCache = trace.NewChunkCache(0)
	cached.SimCounters = &SimCounters{}
	run := func(stage string) {
		t.Helper()
		text, csv := e.Run(cached)
		if text != textPlain || csv != csvPlain {
			t.Fatalf("%s: %s cached run differs from uncached run\n--- plain ---\n%s\n--- cached ---\n%s",
				id, stage, textPlain, text)
		}
	}

	run("cold")
	if hits, _ := cached.ChunkCache.Stats(); hits != 0 || cached.ChunkCache.BytesUsed() != 0 {
		t.Fatalf("cold run: %d hits, %d bytes stored; want 0, 0", hits, cached.ChunkCache.BytesUsed())
	}
	if cached.SimCounters.Insts.Load() == 0 {
		t.Fatal("SimCounters recorded no instructions")
	}
	if cov := cached.SimCounters.FFCoverage(); cov <= 0 || cov >= 1 {
		t.Fatalf("fast-forward coverage = %v, want in (0, 1)", cov)
	}

	run("populate")
	if cached.ChunkCache.BytesUsed() == 0 {
		t.Fatal("second run stored no chunks")
	}

	run("warm")
	if hits, _ := cached.ChunkCache.Stats(); hits == 0 {
		t.Fatal("warm repeat run produced no chunk-cache hits")
	}
	if hr := cached.SimCounters.HitRate(); hr <= 0 {
		t.Fatalf("SimCounters hit rate = %v, want > 0", hr)
	}
}
