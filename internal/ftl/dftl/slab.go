package dftl

// Slab allocator for DFTL's cache entries, mirroring internal/core's
// discipline: entries are allocated in chunks, reset to sentinels on
// release, and reused LIFO, so the steady-state miss/evict cycle performs no
// heap allocation. The reset-on-release rule is audited by CheckInvariants
// (and so by the ftlsan build after every host operation).

import (
	"fmt"

	"repro/internal/flash"
)

// slabChunk is how many entries one backing-array growth adds.
const slabChunk = 256

// entrySlab recycles cache entries.
type entrySlab struct {
	free []*entry
}

// get returns a reset entry, growing the slab if the free list is empty.
func (s *entrySlab) get() *entry {
	n := len(s.free)
	if n == 0 {
		s.grow()
		n = len(s.free)
	}
	e := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return e
}

func (s *entrySlab) grow() {
	chunk := make([]entry, slabChunk)
	for i := range chunk {
		e := &chunk[i]
		e.node.Value = e // set once; the node identity never changes
		resetEntry(e)
		s.free = append(s.free, e)
	}
}

// put resets e and returns it to the free list. e must already be unlinked
// from its LRU segment and removed from the entry map.
func (s *entrySlab) put(e *entry) {
	resetEntry(e)
	s.free = append(s.free, e)
}

// resetEntry restores the sentinel state a free entry must carry.
func resetEntry(e *entry) {
	e.lpn = -1
	e.ppn = flash.InvalidPPN
	e.dirty = false
	e.protected = false
}

// check audits the free list: every entry must be unlinked and fully reset.
func (s *entrySlab) check() error {
	for _, e := range s.free {
		if e == nil {
			return fmt.Errorf("dftl: nil entry on slab free list")
		}
		if e.node.Value != e {
			return fmt.Errorf("dftl: free entry lost its back-pointer")
		}
		if e.node.InList() {
			return fmt.Errorf("dftl: free entry still linked in a list")
		}
		if e.lpn != -1 || e.ppn != flash.InvalidPPN || e.dirty || e.protected {
			return fmt.Errorf("dftl: free entry not reset (lpn=%d dirty=%v protected=%v)", e.lpn, e.dirty, e.protected)
		}
	}
	return nil
}
