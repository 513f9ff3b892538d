package prefetch

// This file implements Pythia's evaluation queue as its hardware does
// it: an associative FIFO. Every L2 access must find all pending
// prefetches of its line, and every overflow must retire the oldest
// pending prefetch, so both have to cost O(1) rather than O(queue
// length) for the queue not to dominate a Pythia run.
//
// The entries sit in a fixed slot array in issue order. Resolved entries
// are only marked dead; the live ones are packed to the front when the
// array runs out of slots. An open-addressed line index (linear probing,
// backward-shift deletion, as the MSHR table in internal/mem) maps each
// line to its oldest live slot, and each slot links to the next younger
// live slot of the same line. A demand access then visits exactly its
// own line's entries, oldest first; an overflow pops the oldest live
// slot; nothing allocates.

// pythiaRingSlots is the slot array's length. Compaction runs once the
// array is used up, which is at most once every
// pythiaRingSlots-pythiaEQCap pushes.
const pythiaRingSlots = 512

// pythiaIndexSlots is the line index's length: a power of two at least
// twice pythiaEQCap, so probe chains stay short and the index never
// fills.
const pythiaIndexSlots = 512

// pythiaIndexShift is 64 - log2(pythiaIndexSlots), for the
// multiplicative hash.
const pythiaIndexShift = 64 - 9

// noSlot ends a same-line chain.
const noSlot = ^uint16(0)

// pythiaPending tracks an issued prefetch awaiting its outcome.
type pythiaPending struct {
	line   uint64
	cycle  int64
	state  uint16
	action uint8
	live   bool
	next   uint16 // next younger live slot of the same line, or noSlot
}

// lineChain is one line index entry: the oldest and youngest live slots
// of the line. used marks slot occupancy in the open-addressed index.
type lineChain struct {
	line        uint64
	first, last uint16
	used        bool
}

// evalQueue is the evaluation queue. ring[head:tail] holds the entries
// in issue order, dead ones included; live counts the live ones.
type evalQueue struct {
	ring       [pythiaRingSlots]pythiaPending
	index      [pythiaIndexSlots]lineChain
	head, tail int
	live       int
}

// len returns the number of live entries.
func (q *evalQueue) len() int { return q.live }

// reset empties the queue.
func (q *evalQueue) reset() {
	q.head, q.tail, q.live = 0, 0, 0
	clear(q.index[:])
}

// push appends a pending prefetch as the youngest entry.
func (q *evalQueue) push(line uint64, state, action int, cycle int64) {
	if q.tail == len(q.ring) {
		q.compact()
	}
	s := q.tail
	q.tail++
	q.live++
	q.ring[s] = pythiaPending{line: line, cycle: cycle, state: uint16(state), action: uint8(action), live: true, next: noSlot}
	q.link(s)
}

// link appends slot s to its line's chain.
func (q *evalQueue) link(s int) {
	k, found := q.find(q.ring[s].line)
	c := &q.index[k]
	if found {
		q.ring[c.last].next = uint16(s)
		c.last = uint16(s)
		return
	}
	*c = lineChain{line: q.ring[s].line, first: uint16(s), last: uint16(s), used: true}
}

// takeLine removes every live entry of line and returns the oldest's
// slot, or noSlot if there is none. The removed entries stay readable,
// oldest first through their next links, until the next push.
func (q *evalQueue) takeLine(line uint64) uint16 {
	k, found := q.find(line)
	if !found {
		return noSlot
	}
	first := q.index[k].first
	for s := first; s != noSlot; s = q.ring[s].next {
		q.ring[s].live = false
		q.live--
	}
	q.drop(k)
	return first
}

// popOldest removes the oldest live entry and returns it; the pointer
// stays valid until the next push. The queue must not be empty.
func (q *evalQueue) popOldest() *pythiaPending {
	for !q.ring[q.head].live {
		q.head++
	}
	e := &q.ring[q.head]
	q.head++
	e.live = false
	q.live--
	// The oldest live entry is the oldest of its line: the head of its
	// chain.
	k, _ := q.find(e.line)
	if e.next == noSlot {
		q.drop(k)
	} else {
		q.index[k].first = e.next
	}
	return e
}

// compact moves the live entries to the front of the ring, in order,
// and rebuilds the line index over their new slots. Relinking rewrites
// the next link of every entry but the youngest of its line, whose link
// already ends the chain.
func (q *evalQueue) compact() {
	n := 0
	for i := q.head; i < q.tail; i++ {
		if q.ring[i].live {
			q.ring[n] = q.ring[i]
			n++
		}
	}
	q.head, q.tail = 0, n
	clear(q.index[:])
	for s := range n {
		q.link(s)
	}
}

// lineHome is a line's preferred index slot: a Fibonacci multiplicative
// hash, taking the high bits so nearby lines scatter.
func lineHome(line uint64) int {
	return int((line * 0x9e3779b97f4a7c15) >> pythiaIndexShift)
}

// find returns the index slot holding line and true, or the empty slot
// where line would go and false.
func (q *evalQueue) find(line uint64) (int, bool) {
	k := lineHome(line)
	for {
		c := &q.index[k]
		if !c.used {
			return k, false
		}
		if c.line == line {
			return k, true
		}
		k = (k + 1) & (pythiaIndexSlots - 1)
	}
}

// drop deletes index slot j. Deletion backward-shifts the probe chain
// so no tombstones accumulate: any entry whose home slot no longer
// reaches it across the gap moves into the gap, repeatedly, until the
// chain is tight again.
func (q *evalQueue) drop(j int) {
	const mask = pythiaIndexSlots - 1
	for {
		q.index[j].used = false
		k := j
		for {
			k = (k + 1) & mask
			if !q.index[k].used {
				return
			}
			h := lineHome(q.index[k].line)
			// The entry at k may move into the gap at j only if its home
			// is not cyclically within (j, k].
			if (j < k && (h <= j || h > k)) || (j > k && h <= j && h > k) {
				q.index[j] = q.index[k]
				j = k
				break
			}
		}
	}
}
