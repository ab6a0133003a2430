// Package iq is the issue queue's scheduling state: per-physical-register
// wakeup lists and an age-ordered ready set. It holds no uops; entries are
// named by their rob-ring slot, which is stable for a uop's lifetime.
//
// Wakeup is event driven. Inserting an entry links one node per
// not-yet-ready source onto that register's wakeup list and records the
// pending count; waking a register walks its list and decrements each
// waiter's count, setting the waiter's bit in the ready set when it reaches
// zero. Select then scans only set bits, 64 slots per word, so a cycle in
// which nothing is ready costs nothing however full the queue is.
//
// Lists are intrusive and doubly linked: node slot*Srcs+k is the k-th source
// of the entry in slot, so a squashed entry unlinks its nodes in O(1) and a
// reused slot never inherits a stale link. Nothing allocates after New.
package iq

import "math/bits"

// Srcs is the number of source operands an entry may wait on: three
// register sources and the value-queue source.
const Srcs = 4

// node is one (entry, source) wakeup-list link. reg is the register it
// waits on, -1 when unlinked; next and prev are meaningful only while
// linked.
type node struct {
	next, prev, reg int32
}

// Queue is the issue queue's scheduling state.
type Queue struct {
	head    []int32 // per register: first waiting node, -1 when none
	nodes   []node  // Srcs per slot
	pending []uint8 // per slot: sources not yet ready
	ready   []uint64
	mask    uint64
}

// New returns an empty queue over regs physical registers and a ring of
// slots entries. slots must be a power of two and at least 64, so a ready
// word never wraps inside the ring.
func New(regs int, slots uint64) Queue {
	if slots < 64 || slots&(slots-1) != 0 {
		panic("iq: ring size must be a power of two of at least 64")
	}
	q := Queue{
		head:    make([]int32, regs),
		nodes:   make([]node, slots*Srcs),
		pending: make([]uint8, slots),
		ready:   make([]uint64, slots/64),
		mask:    slots - 1,
	}
	for i := range q.head {
		q.head[i] = -1
	}
	for i := range q.nodes {
		q.nodes[i].reg = -1
	}
	return q
}

// Insert adds the entry at ring position pos. Each source register srcs[k]
// that is valid (non-negative) and not yet ready by regReady joins that
// register's wakeup list; an entry with no pending source is ready at once.
func (q *Queue) Insert(pos uint64, srcs [Srcs]int32, regReady []bool) {
	slot := pos & q.mask
	p := uint8(0)
	for k, r := range srcs {
		if r < 0 || regReady[r] {
			continue
		}
		i := int32(slot*Srcs) + int32(k)
		h := q.head[r]
		q.nodes[i] = node{next: h, prev: -1, reg: r}
		if h >= 0 {
			q.nodes[h].prev = i
		}
		q.head[r] = i
		p++
	}
	q.pending[slot] = p
	if p == 0 {
		q.ready[slot>>6] |= 1 << (slot & 63)
	}
}

// Wake delivers register r's result: every entry waiting on it counts one
// source ready, and entries with nothing left pending become ready.
func (q *Queue) Wake(r int32) {
	i := q.head[r]
	q.head[r] = -1
	for i >= 0 {
		nd := &q.nodes[i]
		nd.reg = -1
		slot := uint64(i) / Srcs
		q.pending[slot]--
		if q.pending[slot] == 0 {
			q.ready[slot>>6] |= 1 << (slot & 63)
		}
		i = nd.next
	}
}

// Next returns the first ready position in [pos, end), or a position at or
// beyond end when there is none. Positions are monotonic ring positions, so
// scanning from the oldest entry visits ready entries oldest first.
func (q *Queue) Next(pos, end uint64) uint64 {
	for pos < end {
		if w := q.ready[(pos&q.mask)>>6] >> (pos & 63); w != 0 {
			return pos + uint64(bits.TrailingZeros64(w))
		}
		pos = (pos | 63) + 1
	}
	return pos
}

// Issue removes the ready entry at pos from the queue.
func (q *Queue) Issue(pos uint64) {
	slot := pos & q.mask
	q.ready[slot>>6] &^= 1 << (slot & 63)
}

// Squash removes the entry at pos, ready or not, unlinking it from every
// wakeup list it still waits on.
func (q *Queue) Squash(pos uint64) {
	slot := pos & q.mask
	q.ready[slot>>6] &^= 1 << (slot & 63)
	if q.pending[slot] == 0 {
		return
	}
	q.pending[slot] = 0
	for i := int32(slot * Srcs); i < int32(slot*Srcs+Srcs); i++ {
		nd := &q.nodes[i]
		if nd.reg < 0 {
			continue
		}
		if nd.prev >= 0 {
			q.nodes[nd.prev].next = nd.next
		} else {
			q.head[nd.reg] = nd.next
		}
		if nd.next >= 0 {
			q.nodes[nd.next].prev = nd.prev
		}
		nd.reg = -1
	}
}

// Ready reports whether the entry at pos is in the ready set.
func (q *Queue) Ready(pos uint64) bool {
	slot := pos & q.mask
	return q.ready[slot>>6]&(1<<(slot&63)) != 0
}

// Pending returns how many sources the entry at pos still waits on.
func (q *Queue) Pending(pos uint64) int { return int(q.pending[pos&q.mask]) }

// ReadyCount returns the size of the ready set.
func (q *Queue) ReadyCount() int {
	n := 0
	for _, w := range q.ready {
		n += bits.OnesCount64(w)
	}
	return n
}
