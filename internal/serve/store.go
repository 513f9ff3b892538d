package serve

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultShards is the store's default shard count.
const DefaultShards = 64

// Store is the sharded session table. Session ids hash onto a
// power-of-two number of shards, each holding one open-addressing index
// of its sessions. Lookups read the index through an atomic pointer:
// they take no lock, write nothing and allocate nothing, so concurrent
// requests on different sessions write no memory in common. Creates,
// deletes and restores serialize on the shard's writer mutex;
// per-session work serializes on the session's own mutex.
type Store struct {
	shards []shard
	mask   uint32 // shard index = id hash & mask
	shift  uint8  // log2(len(shards)): the hash bits above it pick index slots
	nextID atomic.Uint64
}

// shard is one slice of the session table. Readers only load idx;
// everything else belongs to writers holding mu.
type shard struct {
	idx  atomic.Pointer[index]
	mu   sync.Mutex
	live int // sessions in idx
	used int // non-nil slots of idx: sessions plus tombstones
}

// index is a linear-probing hash table of sessions. A slot goes from nil
// to a session, from a session to tombstone on delete, and from
// tombstone to a session on a later insert; it never returns to nil, so
// a reader probing from a session's home slot reaches it before any nil.
// When sessions plus tombstones would pass three quarters of the slots,
// the writer builds a fresh index at most half full and publishes it;
// readers still holding the old one finish on a frozen, consistent copy.
// Rebuilds happen once per doubling (or per tombstone sweep), so create
// and delete stay O(1) amortized.
type index struct {
	slots []atomic.Pointer[Session]
	mask  uint32 // len(slots) - 1
}

// tombstone marks a deleted session's slot. Probes step over it.
var tombstone = new(Session)

// emptyIndex is every shard's index before its first session: one nil
// slot, so lookups miss at once. A writer always rebuilds it before
// inserting, so it is never written.
var emptyIndex = &index{slots: make([]atomic.Pointer[Session], 1)}

// minIndexSlots is the size of a shard's first real index.
const minIndexSlots = 8

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
	st := &Store{
		shards: make([]shard, size),
		mask:   uint32(size - 1),
		shift:  uint8(bits.TrailingZeros(uint(size))),
	}
	for i := range st.shards {
		st.shards[i].idx.Store(emptyIndex)
	}
	return st
}

// Shards returns the shard count.
func (st *Store) Shards() int { return len(st.shards) }

// idHash is the FNV-1a hash of a session id. Its low bits pick the
// shard and the bits above them the home slot in the shard's index. It
// is generic over string and []byte so the batch path, which works on
// slices of the request body, looks ids up without allocating strings.
func idHash[T string | []byte](id T) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return h
}

// lookup returns the live session with the given id, or nil. It is the
// store's one read path: Get and the batch plane both use it.
func lookup[T string | []byte](st *Store, id T) *Session {
	h := idHash(id)
	ix := st.shards[h&st.mask].idx.Load()
	for i := h >> st.shift; ; i++ {
		s := ix.slots[i&ix.mask].Load()
		if s == nil {
			return nil
		}
		if s != tombstone && s.id == string(id) {
			return s
		}
	}
}

// insert registers s under its id, reporting false (and registering
// nothing) when the id is taken.
func (st *Store) insert(s *Session) bool {
	h := idHash(s.id)
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ix := sh.idx.Load()
	if (sh.used+1)*4 > len(ix.slots)*3 {
		ix = sh.rebuild(st.shift)
	}
	free := -1 // first tombstone on the probe path
	i := h >> st.shift
	for ; ; i++ {
		p := ix.slots[i&ix.mask].Load()
		if p == nil {
			break
		}
		if p == tombstone {
			if free < 0 {
				free = int(i & ix.mask)
			}
		} else if p.id == s.id {
			return false
		}
	}
	if free < 0 {
		free = int(i & ix.mask)
		sh.used++
	}
	ix.slots[free].Store(s)
	sh.live++
	return true
}

// rebuild publishes a fresh index for sh's live sessions, sized so it is
// at most half full after the insert that triggered it, and returns it.
// The caller holds sh.mu.
func (sh *shard) rebuild(shift uint8) *index {
	n := minIndexSlots
	for n < 2*(sh.live+1) {
		n <<= 1
	}
	ix := &index{slots: make([]atomic.Pointer[Session], n), mask: uint32(n - 1)}
	old := sh.idx.Load()
	for j := range old.slots {
		s := old.slots[j].Load()
		if s == nil || s == tombstone {
			continue
		}
		i := idHash(s.id) >> shift
		for ix.slots[i&ix.mask].Load() != nil {
			i++
		}
		ix.slots[i&ix.mask].Store(s)
	}
	sh.used = sh.live
	sh.idx.Store(ix)
	return ix
}

// remove unregisters and returns the session with the given id, or nil.
func (st *Store) remove(id string) *Session {
	h := idHash(id)
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ix := sh.idx.Load()
	for i := h >> st.shift; ; i++ {
		slot := &ix.slots[i&ix.mask]
		s := slot.Load()
		if s == nil {
			return nil
		}
		if s != tombstone && s.id == id {
			slot.Store(tombstone)
			sh.live--
			return s
		}
	}
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
	agent, drive, err := buildController(spec)
	if err != nil {
		return nil, err
	}
	s := &Session{spec: spec, agent: agent, drive: drive}
	for {
		s.id = fmt.Sprintf("s-%08x", st.nextID.Add(1))
		if st.insert(s) {
			return s, nil
		}
	}
}

// Get returns the session with the given id.
func (st *Store) Get(id string) (*Session, bool) {
	s := lookup(st, id)
	return s, s != nil
}

// Delete removes the session with the given id, reporting whether it
// existed. A concurrent request may have resolved the session before it
// left the index, so Delete also sets the session's deleted flag under
// its lock: operations that already hold the pointer re-check the flag
// and answer not-found instead of touching the agent.
func (st *Store) Delete(id string) bool {
	s := st.remove(id)
	if s == nil {
		return false
	}
	s.mu.Lock()
	s.deleted = true
	s.mu.Unlock()
	return true
}

// Len returns the number of live sessions.
func (st *Store) Len() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += sh.live
		sh.mu.Unlock()
	}
	return n
}

// IDs returns every live session id, sorted, so checkpoint files and
// list responses are deterministic regardless of shard layout.
func (st *Store) IDs() []string {
	var ids []string
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		ix := sh.idx.Load()
		for j := range ix.slots {
			if s := ix.slots[j].Load(); s != nil && s != tombstone {
				ids = append(ids, s.id)
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(ids)
	return ids
}
