package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"microbandit/internal/core"
)

// DefaultShards is the store's default shard count.
const DefaultShards = 64

// Store is the sharded session table. Session ids hash onto a
// power-of-two number of shards, each guarded by its own RWMutex, so
// concurrent request handling contends only within a shard — the map
// lock is never the bottleneck; per-session work serializes on the
// session's own mutex.
//
// Each shard also owns the slab arenas its plain-agent sessions live in:
// contiguous struct-of-arrays chunks, one arena per arm count, allocated
// and freed under the shard's write lock.
type Store struct {
	shards []shard
	mask   uint32
	nextID atomic.Uint64
}

type shard struct {
	mu     sync.RWMutex
	m      map[string]*Session
	arenas map[int]*slabArena // arm count → arena
}

// slabArena is one shard's slab storage for a single arm count: a list
// of fixed-capacity chunks, grown one chunk at a time as sessions
// accumulate, each new chunk sized by chunkSlots from the slots the
// arena already holds, so the arena doubles from a few slots up to
// full-size chunks. Chunks are never reclaimed — freed slots recycle
// within their chunk — so agent pointers and table views stay valid for
// a session's whole life.
type slabArena struct {
	chunks []*core.Slab
}

// chunkSlots sizes an arena's next chunk from the slots the arena
// already holds. The first chunk has 4 slots; each later one
// matches the arena's capacity so far, so the arena doubles, until
// chunks reach the full size: ~8192 table floats, clamped to [16, 512]
// slots. Storage is thus paid per session — 128 DUCB-8 sessions over 64
// shards hold ~1.5 KB each — while a shard with thousands of sessions
// still amortizes its per-chunk bookkeeping over full-size chunks.
func chunkSlots(arms, held int) int {
	const firstSlots, targetFloats = 4, 8192
	full := min(max(targetFloats/arms, 16), 512)
	return min(max(held, firstSlots), full)
}

// NewStore returns a store with at least the requested number of shards,
// rounded up to a power of two. n <= 0 selects DefaultShards.
func NewStore(n int) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	st := &Store{shards: make([]shard, size), mask: uint32(size - 1)}
	for i := range st.shards {
		st.shards[i].m = make(map[string]*Session)
		st.shards[i].arenas = make(map[int]*slabArena)
	}
	return st
}

// Shards returns the shard count.
func (st *Store) Shards() int { return len(st.shards) }

// shardIndex hashes an id onto its shard index (FNV-1a). It is generic
// over string and []byte so the batch parser, which works on slices of
// the request body, routes ids without allocating strings.
func shardIndex[T string | []byte](st *Store, id T) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return h & st.mask
}

// shardFor hashes id onto its shard.
func (st *Store) shardFor(id string) *shard {
	return &st.shards[shardIndex(st, id)]
}

// lockedChunkFor returns a chunk with at least one free slot for the
// given arm count, growing the arena by one chunkSlots-sized chunk when
// every chunk is full. Session create and checkpoint restore both place
// agents through it. The caller must hold sh.mu for writing.
func lockedChunkFor(sh *shard, arms int) *core.Slab {
	ar := sh.arenas[arms]
	if ar == nil {
		ar = &slabArena{}
		sh.arenas[arms] = ar
	}
	held := 0
	for _, c := range ar.chunks {
		if c.Live() < c.Cap() {
			return c
		}
		held += c.Cap()
	}
	c := core.MustNewSlab(arms, chunkSlots(arms, held))
	ar.chunks = append(ar.chunks, c)
	return c
}

// lockedBuildSession constructs a session in sh, placing plain agents in
// the shard's slab arena. The caller must hold sh.mu for writing and
// registers the returned session itself.
func lockedBuildSession(sh *shard, id string, spec Spec) (*Session, error) {
	var slab *core.Slab
	var slot int
	alloc := func(cfg core.Config) (*core.Agent, error) {
		c := lockedChunkFor(sh, cfg.Arms)
		a, sl, err := c.Alloc(cfg)
		if err != nil {
			return nil, err
		}
		slab, slot = c, sl
		return a, nil
	}
	agent, drive, err := buildController(spec, alloc)
	if err != nil {
		if slab != nil {
			slab.Free(slot)
		}
		return nil, err
	}
	return &Session{id: id, spec: spec, agent: agent, drive: drive, slab: slab, slot: slot}, nil
}

// Create builds a session from spec under a fresh id and registers it.
// A refused spec takes no id. Counter ids can collide with sessions
// restored from a checkpoint whose records carry ids above its next_id,
// so the counter advances until it lands on a free id.
func (st *Store) Create(spec Spec) (*Session, error) {
	spec.normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	for {
		id := fmt.Sprintf("s-%08x", st.nextID.Add(1))
		sh := st.shardFor(id)
		sh.mu.Lock()
		if _, taken := sh.m[id]; taken {
			sh.mu.Unlock()
			continue
		}
		s, err := lockedBuildSession(sh, id, spec)
		if err != nil {
			sh.mu.Unlock()
			return nil, err
		}
		sh.m[id] = s
		sh.mu.Unlock()
		return s, nil
	}
}

// Get returns the session with the given id.
func (st *Store) Get(id string) (*Session, bool) {
	sh := st.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.m[id]
	sh.mu.RUnlock()
	return s, ok
}

// Delete removes the session with the given id, reporting whether it
// existed. Removal is a three-beat sequence because a concurrent request
// may have resolved the session pointer before the map delete:
//
//  1. remove the id from the shard map (new lookups miss);
//  2. set the session's deleted flag under its own lock (in-flight
//     operations that already hold the pointer re-check the flag under
//     s.mu and answer not-found instead of touching the agent);
//  3. free the slab slot under the shard lock (safe now: any operation
//     acquiring s.mu after step 2 bails before dereferencing the agent,
//     and the slot may be handed to the shard's next session).
func (st *Store) Delete(id string) bool {
	sh := st.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	if !ok {
		sh.mu.Unlock()
		return false
	}
	delete(sh.m, id)
	sh.mu.Unlock()

	s.mu.Lock()
	s.deleted = true
	slab, slot := s.slab, s.slot
	s.mu.Unlock()

	if slab != nil {
		sh.mu.Lock()
		slab.Free(slot)
		sh.mu.Unlock()
	}
	return true
}

// Len returns the number of live sessions.
func (st *Store) Len() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// IDs returns every live session id, sorted, so checkpoint files and
// list responses are deterministic regardless of shard layout.
func (st *Store) IDs() []string {
	var ids []string
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for id := range sh.m {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}
