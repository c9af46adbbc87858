// Slab allocators for the TPFTL cache nodes.
//
// The steady-state service path creates and destroys entry and TP nodes
// constantly (every miss installs nodes, every eviction removes them). Slab
// recycling turns those into free-list pops and pushes: nodes are allocated
// up front (entries) or in chunks (TP nodes), reset to a sentinel state when
// released, and reused in LIFO order, so after warm-up the translation path
// performs zero heap allocations. The reset-on-release discipline matters as
// much as the reuse: a recycled node carrying a stale dirty bit or offset
// would silently corrupt the cache, so release restores every field to a
// recognizable sentinel and CheckInvariants audits the free lists (the ftlsan
// build additionally audits each TP node's offset table and dirty bitmap at
// release time).
package core

import (
	"fmt"

	"repro/internal/flash"
)

// entrySlab holds every entry node of the cache in one array, allocated once
// at the most entries the cache can ever hold and never reallocated. Nodes
// therefore never move, and everything that names one names it by its
// position (4 bytes) rather than its address (8): a TP node's offset table,
// its list's head and tail, and each node's links to its neighbours. With no
// pointer in it, the array is memory the garbage collector never scans, and
// relinking a node stores integers, with no write barrier. Positions are
// handed out in order, so the array's memory is first touched as the cache
// first fills — a budget far larger than the working set costs address space,
// not resident pages.
type entrySlab struct {
	nodes []entryNode // len: positions handed out so far; cap: the most there can be
	free  []int32     // released positions, reused LIFO before a new one is handed out; same cap
}

// get returns a reset entry node: the last one released, or else the next
// position never handed out. More live entries than the array was reserved
// for (FTL.reserveEntries) is a bug in the cache's accounting and panics
// (slice bounds).
func (s *entrySlab) get() *entryNode {
	if n := len(s.free); n > 0 {
		e := &s.nodes[s.free[n-1]]
		s.free = s.free[:n-1]
		return e
	}
	i := len(s.nodes)
	s.nodes = s.nodes[:i+1]
	e := &s.nodes[i]
	e.idx = int32(i) // set once; the node's position never changes
	resetEntry(e)
	return e
}

// put resets e and returns its position to the free list. e must already be
// unlinked from its entry list.
func (s *entrySlab) put(e *entryNode) {
	resetEntry(e)
	s.free = append(s.free, e.idx)
}

// resetEntry restores the sentinel state a free entry node must carry: no
// links, and off -1, which marks it as in no list.
func resetEntry(e *entryNode) {
	e.prev, e.next = -1, -1
	e.off = -1
	e.ppn = flash.InvalidPPN
	e.dirty = false
	e.stamp = 0
}

// The entry-level lists: one per TP node, MRU (head) to LRU (tail), linked
// through the slab positions of its nodes, -1 for none.

// pushFront links e, which is in no list, at the MRU end of tp's entries.
func (s *entrySlab) pushFront(tp *tpNode, e *entryNode) {
	e.prev, e.next = -1, tp.head
	if tp.head >= 0 {
		s.nodes[tp.head].prev = e.idx
	} else {
		tp.tail = e.idx
	}
	tp.head = e.idx
	tp.count++
}

// unlink removes e from tp's entries.
func (s *entrySlab) unlink(tp *tpNode, e *entryNode) {
	s.splice(tp, e.prev, e.next)
	e.prev, e.next = -1, -1
	tp.count--
}

// splice links front and back, the entries of tp on either side of a segment
// taken out of its list (-1 where the segment reached the MRU or the LRU end),
// to each other. The segment's own links and tp's count are left to the
// caller.
func (s *entrySlab) splice(tp *tpNode, front, back int32) {
	if front >= 0 {
		s.nodes[front].next = back
	} else {
		tp.head = back
	}
	if back >= 0 {
		s.nodes[back].prev = front
	} else {
		tp.tail = front
	}
}

// moveToFront makes e, one of tp's entries, the MRU one. An e that is not
// the head has a prev, and the list another node to be its next.
func (s *entrySlab) moveToFront(tp *tpNode, e *entryNode) {
	if tp.head == e.idx {
		return
	}
	s.nodes[e.prev].next = e.next
	if e.next >= 0 {
		s.nodes[e.next].prev = e.prev
	} else {
		tp.tail = e.prev
	}
	s.nodes[tp.head].prev = e.idx
	e.prev, e.next = -1, tp.head
	tp.head = e.idx
}

// prevClean returns the position of the first clean entry from position i
// toward the MRU end, i included, or -1.
func (s *entrySlab) prevClean(i int32) int32 {
	for ; i >= 0 && s.nodes[i].dirty; i = s.nodes[i].prev {
	}
	return i
}

// check audits the slab: every position handed out is exactly one of free
// (on the free list once, unlinked, fully reset) or linked into an entry
// list, and live of them are linked. CheckInvariants, which has walked the
// live entries and counted them, calls it so property tests and the ftlsan
// build catch a recycle that leaked state the moment it happens.
func (s *entrySlab) check(live int) error {
	onFree := make([]bool, len(s.nodes))
	for _, i := range s.free {
		if i < 0 || int(i) >= len(s.nodes) {
			return fmt.Errorf("tpftl: slab free list holds position %d, only %d handed out", i, len(s.nodes))
		}
		if onFree[i] {
			return fmt.Errorf("tpftl: slab position %d is on the free list twice", i)
		}
		onFree[i] = true
	}
	for i := range s.nodes {
		e := &s.nodes[i]
		if int(e.idx) != i {
			return fmt.Errorf("tpftl: entry node at slab position %d lost its identity (idx %d)", i, e.idx)
		}
		switch {
		case !onFree[i]:
			if e.off < 0 {
				return fmt.Errorf("tpftl: slab position %d is neither free nor linked", i)
			}
		case e.prev != -1 || e.next != -1:
			return fmt.Errorf("tpftl: free entry node at slab position %d still has links (prev %d, next %d)", i, e.prev, e.next)
		case e.off != -1 || e.ppn != flash.InvalidPPN || e.dirty || e.stamp != 0:
			return fmt.Errorf("tpftl: free entry node not reset (off=%d dirty=%v stamp=%d)", e.off, e.dirty, e.stamp)
		}
	}
	if linked := len(s.nodes) - len(s.free); linked != live {
		return fmt.Errorf("tpftl: %d slab positions linked, %d entries cached", linked, live)
	}
	return nil
}

// slabChunk is how many TP nodes one backing-array growth adds. Chunking
// keeps the nodes of a batch contiguous in memory and amortizes allocator
// calls; the free list itself is a plain stack.
const slabChunk = 256

// tpSlab recycles tpNodes. The dense byOff table and dirtyBits are retained
// across recycles: removeEntry zeroes each slot and bit and a node is only
// released when empty, so both are already all-zero and reuse costs nothing.
type tpSlab struct {
	free []*tpNode
	err  error // sticky: set when the ftlsan release audit finds a stale slot
}

// get returns a reset TP node whose byOff table has exactly ePerTP slots and
// whose dirtyBits has a bit for each.
func (s *tpSlab) get(ePerTP int) *tpNode {
	n := len(s.free)
	if n == 0 {
		s.grow()
		n = len(s.free)
	}
	tp := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	if len(tp.byOff) != ePerTP {
		tp.byOff = make([]int32, ePerTP)
		tp.dirtyBits = make([]uint64, (ePerTP+63)/64)
	}
	return tp
}

func (s *tpSlab) grow() {
	chunk := make([]tpNode, slabChunk)
	for i := range chunk {
		tp := &chunk[i]
		tp.node.Value = tp
		resetTPNode(tp)
		s.free = append(s.free, tp)
	}
}

// put resets tp and returns it to the free list. tp must be empty (no
// entries) and unlinked from the page list.
func (s *tpSlab) put(tp *tpNode) {
	if slabDeepCheck && s.err == nil {
		for off, slot := range tp.byOff {
			if slot != 0 {
				s.err = fmt.Errorf("tpftl: tp node %d released with live slot at offset %d", tp.vtpn, off)
				break
			}
		}
		for w, word := range tp.dirtyBits {
			if word != 0 {
				s.err = fmt.Errorf("tpftl: tp node %d released with dirty bits %#x in word %d", tp.vtpn, word, w)
				break
			}
		}
	}
	resetTPNode(tp)
	s.free = append(s.free, tp)
}

// resetTPNode restores the sentinel state a free TP node must carry. byOff
// and dirtyBits are kept: they are already zero (see tpSlab doc).
func resetTPNode(tp *tpNode) {
	tp.vtpn = -1
	tp.head, tp.tail = -1, -1
	tp.dirty = 0
	tp.stampSum = 0
}

// check audits the free list, mirroring entrySlab.check.
func (s *tpSlab) check() error {
	if s.err != nil {
		return s.err
	}
	for _, tp := range s.free {
		if tp == nil {
			return fmt.Errorf("tpftl: nil tp node on slab free list")
		}
		if tp.node.Value != tp {
			return fmt.Errorf("tpftl: free tp node lost its back-pointer")
		}
		if tp.node.InList() {
			return fmt.Errorf("tpftl: free tp node still linked in a list")
		}
		if tp.count != 0 || tp.head != -1 || tp.tail != -1 {
			return fmt.Errorf("tpftl: free tp node still holds %d entries (head %d, tail %d)", tp.count, tp.head, tp.tail)
		}
		if tp.vtpn != -1 || tp.dirty != 0 || tp.stampSum != 0 {
			return fmt.Errorf("tpftl: free tp node not reset (vtpn=%d dirty=%d stampSum=%d)", tp.vtpn, tp.dirty, tp.stampSum)
		}
	}
	return nil
}
