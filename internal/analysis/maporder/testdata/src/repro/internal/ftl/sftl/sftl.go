// Package sftl reconstructs the second historical map-order bug: S-FTL
// picked the dirty-buffer group to flush by an argmax over a map, so on a
// size tie the flushed page, and through it physical page allocation,
// differed between identical runs. A tie-break toward the smallest vtpn
// made the result order-free, but the ban does not weigh that: the fix is a
// walk in vtpn order.
package sftl

type VTPN int32

type PPN int64

type FTL struct {
	buffer  map[VTPN]map[int32]PPN
	byVTPN  [][]PPN // the fixed store: buffered entries by vtpn
	flushed VTPN
}

// flushLargestGroup is the buggy shape.
func (f *FTL) flushLargestGroup() {
	best := -1
	for v, ents := range f.buffer { // want `range over map f\.buffer`
		if len(ents) > best {
			best, f.flushed = len(ents), v
		}
	}
}

// flushLargestGroupFixed walks the per-vtpn store in ascending order, so a
// tie goes to the smallest vtpn.
func (f *FTL) flushLargestGroupFixed() {
	best := 0
	for v, ents := range f.byVTPN {
		if len(ents) > best {
			best, f.flushed = len(ents), VTPN(v)
		}
	}
}
