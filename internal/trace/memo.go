package trace

import (
	"sync"
	"sync/atomic"
)

// Memoized chunk cache. Experiment sweeps can run several agent
// configurations over the same (generator, seed) trace; trace generation
// is ~a quarter of simulator CPU. A ChunkCache stores generator output at
// chunk granularity so later runs over the same key replay slabs with a
// memcpy instead of regenerating.
//
// Admission on reuse: a key's chunks are stored only once the key is
// read a second time. The first source opened on a key generates live
// and copies nothing, the second stores what it generates, and the third
// and later replay. A trace read once — every run in Table 8 derives its
// own seed — therefore costs no memory, and the budget is left to the
// keys that are actually shared.
//
// Entries are append-only chunk sequences, so the cache is valid only
// for deterministic generators whose stream is a pure function of the
// key — true of every catalog app (name+seed+shape) and of .mbt replay.
// Concurrent runs over the same key race benignly: both generate the
// same bytes, whichever stores first wins, and readers never see a
// partially written chunk (slabs are published under the entry lock,
// complete). The cache is bounded by a global byte budget; once
// exceeded, sources fall back to live generation (correctness never
// depends on residency).

// CacheStatser exposes memoization effectiveness counters. The
// cache-backed source implements it per run; consumers (the core model,
// telemetry) probe it optionally.
type CacheStatser interface {
	// CacheStats returns the source's chunk-level hit and miss counts.
	CacheStats() (hits, misses int64)
}

// DefaultChunkCacheBytes is the default cache budget. A 2M-instruction
// run is ~2000 chunk slabs ≈ 40 MiB; 256 MiB holds several full-preset
// traces. Only keys read at least twice are stored, so a report whose
// traces are each read once stays at zero bytes whatever the budget.
const DefaultChunkCacheBytes = 256 << 20

// ChunkCache memoizes generator output across runs, keyed by a
// caller-chosen identity string (generator name + seed by convention —
// everything the stream is a function of). Safe for concurrent use.
type ChunkCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	budget  int64
	used    int64

	hits   atomic.Int64
	misses atomic.Int64
}

// cacheEntry is one key's append-only chunk sequence.
type cacheEntry struct {
	opens int // sources opened on the key; guarded by ChunkCache.mu

	mu     sync.Mutex
	chunks []*Chunk
}

// NewChunkCache builds a cache bounded by budgetBytes (≤0 selects
// DefaultChunkCacheBytes).
func NewChunkCache(budgetBytes int64) *ChunkCache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultChunkCacheBytes
	}
	return &ChunkCache{entries: map[string]*cacheEntry{}, budget: budgetBytes}
}

// Stats returns the cache's cumulative chunk-level hit and miss counts
// across all sources.
func (cc *ChunkCache) Stats() (hits, misses int64) {
	return cc.hits.Load(), cc.misses.Load()
}

// HitRate returns hits/(hits+misses), or 0 before any traffic.
func (cc *ChunkCache) HitRate() float64 {
	h, m := cc.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// BytesUsed returns the resident slab footprint.
func (cc *ChunkCache) BytesUsed() int64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.used
}

// open returns (creating if needed) the key's entry and counts one more
// source on it, reporting whether an earlier source had opened the key:
// only such a source stores chunks.
func (cc *ChunkCache) open(key string) (e *cacheEntry, reused bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	e = cc.entries[key]
	if e == nil {
		e = &cacheEntry{}
		cc.entries[key] = e
	}
	e.opens++
	return e, e.opens > 1
}

// reserve claims n bytes of budget, reporting whether they fit.
func (cc *ChunkCache) reserve(n int64) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.used+n > cc.budget {
		return false
	}
	cc.used += n
	return true
}

// release returns n reserved bytes.
func (cc *ChunkCache) release(n int64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.used -= n
}

// Source wraps g in a memoizing ChunkSource for the given key. The
// returned generator serves chunks from the cache when they are
// resident and falls back to g (catching it up through discarded
// chunks first) when they are not. Chunks it generates are stored only
// if an earlier source was opened on the same key. It remains a scalar
// Generator and forwards PhaseAt, so it is a drop-in replacement at
// every core construction site; like any Generator it is single-run
// state and must not be shared across goroutines (the cache itself is
// shared freely).
//
// The key must capture everything g's stream depends on — by convention
// "name:seed" — or runs with different traces would replay each other's.
func (cc *ChunkCache) Source(key string, g Generator) Generator {
	e, reused := cc.open(key)
	return &cachedSource{cc: cc, e: e, admit: reused, gen: g, src: SourceOf(g)}
}

// cachedSource is one run's view of a cache entry.
type cachedSource struct {
	cc    *ChunkCache
	e     *cacheEntry
	admit bool // an earlier source opened the key: store generated chunks
	gen   Generator
	src   ChunkSource

	idx   int // next chunk index to serve
	srcAt int // chunks the live source has produced

	hits, misses int64

	// scratch is the catch-up slab: chunks the live source must
	// regenerate to reach a miss position after a run of hits.
	scratch *Chunk

	// replay adapts the chunked stream back to scalar Next calls.
	replay    Chunk
	replayPos int
}

// Name implements Generator and ChunkSource.
func (s *cachedSource) Name() string { return s.gen.Name() }

// CacheStats implements CacheStatser with this run's counters.
func (s *cachedSource) CacheStats() (hits, misses int64) { return s.hits, s.misses }

// PhaseAt implements PhaseAtter by delegation, so phase-structured
// traces keep their context signatures through the cache (and
// non-phase traces keep reporting phase 0).
func (s *cachedSource) PhaseAt(n int64) int {
	if pa, ok := s.gen.(PhaseAtter); ok {
		return pa.PhaseAt(n)
	}
	return 0
}

// NextChunk implements ChunkSource.
func (s *cachedSource) NextChunk(c *Chunk) {
	e := s.e
	e.mu.Lock()
	if s.idx < len(e.chunks) && e.chunks[s.idx].Len() == c.Len() {
		stored := e.chunks[s.idx]
		e.mu.Unlock()
		c.CopyFrom(stored)
		s.idx++
		s.hits++
		s.cc.hits.Add(1)
		return
	}
	e.mu.Unlock()
	s.misses++
	s.cc.misses.Add(1)

	// Catch the live source up through any chunks this run served from
	// the cache (or, after a size change, regenerate from the start).
	if s.srcAt > s.idx {
		panic("trace: chunk cache served mixed chunk sizes")
	}
	for s.srcAt < s.idx {
		if s.scratch == nil {
			s.scratch = &Chunk{}
		}
		s.scratch.Reset(c.Len())
		s.src.NextChunk(s.scratch)
		s.srcAt++
	}
	s.src.NextChunk(c)
	s.srcAt++
	s.idx++
	s.store(c)
}

// store publishes a freshly generated chunk if the key has been reused,
// the chunk extends the entry contiguously and the budget allows;
// otherwise the chunk is simply not cached (a concurrent run may already
// have stored identical bytes).
func (s *cachedSource) store(c *Chunk) {
	if !s.admit {
		return
	}
	e := s.e
	e.mu.Lock()
	if len(e.chunks) != s.idx-1 {
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	// Reserve outside the entry lock; a failed reservation means the
	// cache is full and the run continues uncached.
	stored := &Chunk{}
	stored.CopyFrom(c)
	n := stored.Bytes()
	if !s.cc.reserve(n) {
		return
	}
	e.mu.Lock()
	if len(e.chunks) == s.idx-1 {
		e.chunks = append(e.chunks, stored)
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	s.cc.release(n)
}

// Next implements Generator by replaying the chunked stream one
// instruction at a time, for scalar consumers (tools, tests). Chunked
// and scalar reads must not be mixed on one source.
func (s *cachedSource) Next(i *Inst) {
	if s.replayPos == s.replay.Len() {
		s.replay.Reset(ChunkLen)
		s.NextChunk(&s.replay)
		s.replayPos = 0
	}
	s.replay.Get(s.replayPos, i)
	s.replayPos++
}
