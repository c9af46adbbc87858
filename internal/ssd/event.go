package ssd

import "time"

// Event is one completion event: request seq finished at Time.
type Event struct {
	Time time.Duration
	Seq  int64 // admission sequence number, breaks Time ties deterministically
}

// less orders events by completion time, admission sequence breaking ties.
// (Time, Seq) pairs are unique, so the order is total and a heap pops them
// in exactly one sequence regardless of insertion order.
func (e Event) less(o Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	return e.Seq < o.Seq
}

// EventQueue is a min-heap of completion events ordered by time (admission
// sequence breaks ties). It is the simulated clock's event list: the
// frontend admits a new request by popping the earliest completion once the
// queue depth is exhausted, and drains elapsed events to track how many
// requests are in flight at any instant.
//
// The heap is hand-rolled over a plain []Event rather than container/heap:
// the stdlib interface moves every element through `any`, boxing each Event
// on Push and Pop, and with millions of scheduled events per trace that
// boxing dominated the scheduler's allocation profile. The backing array is
// retained across Pops, so a warmed queue never allocates.
type EventQueue struct {
	h []Event
}

// minEvents is the smallest backing array a queue allocates: 128 bytes, a
// size class whose objects fill whole line pairs. A smaller one would share
// its lines with whatever the allocator put beside it, and with the device's
// timing half on a goroutine of its own (ftl.Device.StartTiming) the queue is
// written on every request by a different core than its neighbours are.
const minEvents = 128 / 16

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// Push adds a completion event.
//
//ftl:hotpath
func (q *EventQueue) Push(e Event) {
	if q.h == nil {
		q.h = make([]Event, 0, minEvents)
	}
	q.h = append(q.h, e)
	// Sift up.
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// Pop removes and returns the earliest event. It panics on an empty queue.
//
//ftl:hotpath
func (q *EventQueue) Pop() Event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.h = h[:n] // backing array retained for reuse
	h = q.h
	// Sift down.
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && h[right].less(h[left]) {
			min = right
		}
		if !h[min].less(h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// Peek returns the earliest event without removing it.
func (q *EventQueue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// DrainThrough pops every event with Time ≤ t and returns how many were
// drained. The frontend uses it under open-loop admission to count the
// requests still in flight when a new one arrives.
//
//ftl:hotpath
func (q *EventQueue) DrainThrough(t time.Duration) int {
	n := 0
	for len(q.h) > 0 && q.h[0].Time <= t {
		q.Pop()
		n++
	}
	return n
}
