// Package lru provides intrusive doubly-linked list primitives used by the
// mapping-cache implementations in this repository.
//
// All FTL caches in this project (DFTL's CMT, S-FTL's page list, TPFTL's
// two-level lists) are recency lists over nodes that already live in a lookup
// map, so an intrusive list — where the links are embedded in the caller's
// node — avoids a second allocation per element and makes unlink O(1) without
// auxiliary bookkeeping.
//
// The list is generic over the element type: Node[T].Value is a T (in
// practice a pointer back to the containing struct), so walking a list never
// boxes values into interfaces and never allocates — a property the
// hot-path allocation guards (AllocsPerRun tests) hold the translators to.
//
// A List is ordered from MRU (front) to LRU (back).
package lru

// Node is the intrusive link block. Embed it (by pointer identity) in any
// struct that participates in a List. A Node belongs to at most one List at a
// time; the owning List is tracked so misuse panics early instead of silently
// corrupting a neighbouring list.
type Node[T any] struct {
	prev, next *Node[T]
	list       *List[T]
	// Value points back to the containing struct. It is set once by the
	// caller before first insertion and never touched by this package.
	Value T
}

// InList reports whether n is currently linked into a list.
func (n *Node[T]) InList() bool { return n.list != nil }

// List is an intrusive MRU→LRU list. The zero value is an empty list ready
// for use.
type List[T any] struct {
	front *Node[T] // most recently used
	back  *Node[T] // least recently used
	size  int
}

// Len returns the number of nodes in the list.
func (l *List[T]) Len() int { return l.size }

// Front returns the MRU node, or nil if the list is empty.
func (l *List[T]) Front() *Node[T] { return l.front }

// Back returns the LRU node, or nil if the list is empty.
func (l *List[T]) Back() *Node[T] { return l.back }

// PushFront inserts n at the MRU position. n must not be in any list.
func (l *List[T]) PushFront(n *Node[T]) {
	if n.list != nil {
		panic("lru: PushFront of node already in a list")
	}
	n.list = l
	n.prev = nil
	n.next = l.front
	if l.front != nil {
		l.front.prev = n
	} else {
		l.back = n
	}
	l.front = n
	l.size++
}

// PushBack inserts n at the LRU position. n must not be in any list.
func (l *List[T]) PushBack(n *Node[T]) {
	if n.list != nil {
		panic("lru: PushBack of node already in a list")
	}
	n.list = l
	n.next = nil
	n.prev = l.back
	if l.back != nil {
		l.back.next = n
	} else {
		l.front = n
	}
	l.back = n
	l.size++
}

// Remove unlinks n from the list. n must be in this list.
func (l *List[T]) Remove(n *Node[T]) {
	if n.list != l {
		panic("lru: Remove of node not in this list")
	}
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.front = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.back = n.prev
	}
	n.prev, n.next, n.list = nil, nil, nil
	l.size--
}

// MoveToFront makes n the MRU node. n must be in this list.
func (l *List[T]) MoveToFront(n *Node[T]) {
	if n.list != l {
		panic("lru: MoveToFront of node not in this list")
	}
	if l.front == n {
		return
	}
	l.Remove(n)
	l.PushFront(n)
}

// MoveToBack makes n the LRU node. n must be in this list.
func (l *List[T]) MoveToBack(n *Node[T]) {
	if n.list != l {
		panic("lru: MoveToBack of node not in this list")
	}
	if l.back == n {
		return
	}
	l.Remove(n)
	l.PushBack(n)
}

// InsertBefore inserts n immediately before mark (towards the MRU end).
// mark must be in this list; n must be in no list.
func (l *List[T]) InsertBefore(n, mark *Node[T]) {
	if mark.list != l {
		panic("lru: InsertBefore with mark not in this list")
	}
	if n.list != nil {
		panic("lru: InsertBefore of node already in a list")
	}
	n.list = l
	n.next = mark
	n.prev = mark.prev
	if mark.prev != nil {
		mark.prev.next = n
	} else {
		l.front = n
	}
	mark.prev = n
	l.size++
}

// InsertAfter inserts n immediately after mark (towards the LRU end).
// mark must be in this list; n must be in no list.
func (l *List[T]) InsertAfter(n, mark *Node[T]) {
	if mark.list != l {
		panic("lru: InsertAfter with mark not in this list")
	}
	if n.list != nil {
		panic("lru: InsertAfter of node already in a list")
	}
	n.list = l
	n.prev = mark
	n.next = mark.next
	if mark.next != nil {
		mark.next.prev = n
	} else {
		l.back = n
	}
	mark.next = n
	l.size++
}

// Next returns the node after n (towards the LRU end), or nil.
func (n *Node[T]) Next() *Node[T] { return n.next }

// Prev returns the node before n (towards the MRU end), or nil.
func (n *Node[T]) Prev() *Node[T] { return n.prev }

// Each calls fn for every node from MRU to LRU. fn must not mutate the list.
func (l *List[T]) Each(fn func(*Node[T]) bool) {
	for n := l.front; n != nil; n = n.next {
		if !fn(n) {
			return
		}
	}
}

// check validates internal consistency; used by tests.
func (l *List[T]) check() error {
	count := 0
	var prev *Node[T]
	for n := l.front; n != nil; n = n.next {
		if n.list != l {
			return errBadOwner
		}
		if n.prev != prev {
			return errBadLink
		}
		prev = n
		count++
		if count > l.size {
			return errBadCount
		}
	}
	if prev != l.back || count != l.size {
		return errBadCount
	}
	return nil
}

type listErr string

func (e listErr) Error() string { return string(e) }

const (
	errBadOwner = listErr("lru: node owned by wrong list")
	errBadLink  = listErr("lru: inconsistent prev link")
	errBadCount = listErr("lru: length mismatch")
)
