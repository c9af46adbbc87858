// Package dftl implements DFTL (Gupta et al., ASPLOS 2009), the first
// demand-based page-level FTL and the baseline of the TPFTL paper.
//
// DFTL caches individual mapping entries (8 B each) in a segmented LRU list
// (a probationary segment absorbs one-touch entries; re-referenced entries
// are promoted to a protected segment). On a miss the requested entry — and
// only it — is loaded from its translation page. On eviction of a dirty
// entry, only that entry is written back (a read-modify-write of its
// translation page); the paper's §3.2 identifies this per-entry writeback as
// DFTL's key inefficiency. During GC, the device batches the mapping updates
// of uncached migrated pages that share a translation page into one update,
// as in the original DFTL design.
package dftl

import (
	"fmt"

	"repro/internal/cacheline"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/lru"
)

// entry is one cached mapping entry.
type entry struct {
	node      lru.Node[*entry]
	lpn       ftl.LPN
	ppn       flash.PPN
	dirty     bool
	protected bool
}

// Config tunes the cache.
type Config struct {
	// CacheBytes is the mapping-cache budget, at ftl.EntryBytesRAM per
	// cached entry.
	CacheBytes int64
}

// FTL is the DFTL translator. Create with New.
type FTL struct {
	capacity int // max cached entries

	entries map[ftl.LPN]*entry
	prob    lru.List[*entry] // probationary segment, MRU..LRU
	prot    lru.List[*entry] // protected segment, MRU..LRU
	protCap int

	// slab recycles entries and evictUp is the single-update writeback
	// scratch, so the steady-state miss/evict cycle allocates nothing.
	slab    entrySlab
	evictUp [1]ftl.EntryUpdate

	ePerTP int // entries per translation page, from SetGeometry
}

var _ ftl.Translator = (*FTL)(nil)
var _ ftl.Inspector = (*FTL)(nil)
var _ ftl.GeometryAware = (*FTL)(nil)

// New returns a DFTL instance with the given cache budget.
func New(cfg Config) *FTL {
	capacity := int(cfg.CacheBytes / ftl.EntryBytesRAM)
	if capacity < 4 {
		capacity = 4
	}
	return cacheline.Isolated(FTL{
		capacity: capacity,
		entries:  make(map[ftl.LPN]*entry, capacity),
		protCap:  capacity / 2, // half the entries form the protected segment
		ePerTP:   ftl.DefaultEntriesPerTP,
	})
}

// SetGeometry implements ftl.GeometryAware.
func (f *FTL) SetGeometry(entriesPerTP int) { f.ePerTP = entriesPerTP }

// Name implements ftl.Translator.
func (f *FTL) Name() string { return "DFTL" }

// Capacity returns the maximum number of cached entries.
func (f *FTL) Capacity() int { return f.capacity }

// Len returns the number of cached entries.
func (f *FTL) Len() int { return len(f.entries) }

// BeginRequest implements ftl.Translator. DFTL has no request-level state.
func (f *FTL) BeginRequest(first, last ftl.LPN, write bool) {}

// Translate implements ftl.Translator.
func (f *FTL) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	if e, ok := f.entries[lpn]; ok {
		env.NoteLookup(true)
		f.touch(e)
		return e.ppn, nil
	}
	env.NoteLookup(false)
	// Make room before reading: the writeback of a dirty victim can
	// trigger GC, which may migrate the very data page being looked up.
	// Reading the translation page only after all evictions guarantees
	// the loaded value is current (ReadTP itself cannot trigger GC).
	if err := f.reserve(env, 1); err != nil {
		return flash.InvalidPPN, err
	}
	vals, err := env.ReadTP(ftl.VTPNOf(lpn, f.ePerTP))
	if err != nil {
		return flash.InvalidPPN, err
	}
	ppn := vals[ftl.OffOf(lpn, f.ePerTP)]
	f.add(lpn, ppn, false)
	return ppn, nil
}

// Lookup implements ftl.Translator.
func (f *FTL) Lookup(lpn ftl.LPN) (flash.PPN, bool) {
	if e, ok := f.entries[lpn]; ok {
		return e.ppn, true
	}
	return flash.InvalidPPN, false
}

// Update implements ftl.Translator.
func (f *FTL) Update(env ftl.Env, lpn ftl.LPN, ppn flash.PPN) error {
	if e, ok := f.entries[lpn]; ok {
		e.ppn = ppn
		e.dirty = true
		f.touch(e)
		return nil
	}
	// Unreachable in the normal write path (Translate just inserted the
	// entry), but a standalone Update must still work.
	if err := f.reserve(env, 1); err != nil {
		return err
	}
	f.add(lpn, ppn, true)
	return nil
}

// touch applies the segmented-LRU promotion rule.
func (f *FTL) touch(e *entry) {
	if e.protected {
		f.prot.MoveToFront(&e.node)
		return
	}
	// Promote to protected.
	f.prob.Remove(&e.node)
	e.protected = true
	f.prot.PushFront(&e.node)
	// Keep the protected segment within its share by demoting its LRU.
	for f.prot.Len() > f.protCap {
		lrun := f.prot.Back()
		d := lrun.Value
		f.prot.Remove(lrun)
		d.protected = false
		f.prob.PushFront(lrun)
	}
}

// reserve evicts entries until n slots are free.
func (f *FTL) reserve(env ftl.Env, n int) error {
	for len(f.entries)+n > f.capacity {
		if err := f.evictOne(env); err != nil {
			return err
		}
	}
	return nil
}

// add inserts a new entry; the caller must have reserved space.
func (f *FTL) add(lpn ftl.LPN, ppn flash.PPN, dirty bool) {
	e := f.slab.get()
	e.lpn, e.ppn, e.dirty = lpn, ppn, dirty
	f.entries[lpn] = e
	f.prob.PushFront(&e.node)
}

// evictOne removes the coldest entry (probationary LRU first), writing it
// back if dirty. The victim is fully unlinked before the writeback so that
// a GC triggered by the flash write sees a consistent cache.
func (f *FTL) evictOne(env ftl.Env) error {
	n := f.prob.Back()
	if n == nil {
		n = f.prot.Back()
	}
	if n == nil {
		return nil
	}
	e := n.Value
	if e.protected {
		f.prot.Remove(n)
	} else {
		f.prob.Remove(n)
	}
	delete(f.entries, e.lpn)
	env.NoteReplacement(e.dirty)
	// Capture the victim and release it before the writeback: WriteTP can
	// trigger GC, whose map updates only touch entries still in the cache
	// and never insert new ones, so the recycled slot cannot be aliased.
	lpn, ppn, dirty := e.lpn, e.ppn, e.dirty
	f.slab.put(e)
	if dirty {
		v := ftl.VTPNOf(lpn, f.ePerTP)
		f.evictUp[0] = ftl.EntryUpdate{Off: ftl.OffOf(lpn, f.ePerTP), PPN: ppn}
		if err := env.WriteTP(v, f.evictUp[:], false); err != nil {
			return err
		}
	}
	return nil
}

// Discard implements ftl.Translator: a trimmed page's cached entry is
// dropped without writeback — the mapping it holds is dead, and the device
// rewrites the translation page itself as part of the discard.
func (f *FTL) Discard(lpn ftl.LPN) {
	e, ok := f.entries[lpn]
	if !ok {
		return
	}
	if e.protected {
		f.prot.Remove(&e.node)
	} else {
		f.prob.Remove(&e.node)
	}
	delete(f.entries, lpn)
	f.slab.put(e)
}

// CheckInvariants audits the cache structure: the map, the two LRU segments
// and the slab free list must agree. The ftlsan device build calls it after
// every host operation.
func (f *FTL) CheckInvariants() error {
	if f.prob.Len()+f.prot.Len() != len(f.entries) {
		return fmt.Errorf("dftl: %d listed entries for %d mapped", f.prob.Len()+f.prot.Len(), len(f.entries))
	}
	// As many listed entries as mapped ones, each mapped under its own lpn:
	// the map and the two segments hold the same entries.
	var err error
	f.each(func(e *entry) {
		if err == nil && f.entries[e.lpn] != e {
			err = fmt.Errorf("dftl: listed entry %d is not the one mapped", e.lpn)
		}
	})
	if err != nil {
		return err
	}
	return f.slab.check()
}

// each calls fn for every cached entry, protected segment first, each
// segment from MRU to LRU.
func (f *FTL) each(fn func(*entry)) {
	for n := f.prot.Front(); n != nil; n = n.Next() {
		fn(n.Value)
	}
	for n := f.prob.Front(); n != nil; n = n.Next() {
		fn(n.Value)
	}
}

// DirtyPages implements ftl.Translator: DFTL holds no page whole, so every
// page with a dirty entry is a read-modify-write.
func (f *FTL) DirtyPages(set []uint64, whole bool) {
	if whole {
		return
	}
	f.each(func(e *entry) {
		if e.dirty {
			v := ftl.VTPNOf(e.lpn, f.ePerTP)
			set[v>>6] |= 1 << (v & 63)
		}
	})
}

// TakeDirty implements ftl.Translator: it walks page v's offsets, so the
// entries come out in offset order.
func (f *FTL) TakeDirty(v ftl.VTPN, ups []ftl.EntryUpdate) []ftl.EntryUpdate {
	first := ftl.LPNAt(v, 0, f.ePerTP)
	for off := 0; off < f.ePerTP; off++ {
		if e, ok := f.entries[first+ftl.LPN(off)]; ok && e.dirty {
			ups = append(ups, ftl.EntryUpdate{Off: off, PPN: e.ppn})
			e.dirty = false
		}
	}
	return ups
}

// RefreshGC implements ftl.Translator: a cached entry takes the migrated
// page's new location in RAM; the device batches the misses per translation
// page (DFTL's original GC-time batching).
func (f *FTL) RefreshGC(lpn ftl.LPN, ppn flash.PPN) bool {
	e, ok := f.entries[lpn]
	if ok {
		e.ppn = ppn
		e.dirty = true
	}
	return ok
}

// Snapshot implements ftl.Inspector.
func (f *FTL) Snapshot() ftl.CacheSnapshot {
	s := ftl.CacheSnapshot{DirtyPerPage: map[ftl.VTPN]int{}}
	f.each(func(e *entry) {
		d := 0
		if e.dirty {
			d = 1
		}
		s.Entries++
		s.DirtyEntries += d
		s.DirtyPerPage[ftl.VTPNOf(e.lpn, f.ePerTP)] += d
	})
	s.TPNodes = len(s.DirtyPerPage)
	s.UsedBytes = int64(len(f.entries)) * ftl.EntryBytesRAM
	return s
}

// DirtyCached returns the dirty cached entries in ascending LPN order;
// consistency tests feed it to Device.CheckConsistency.
func (f *FTL) DirtyCached() []ftl.DirtyEntry {
	out := []ftl.DirtyEntry{}
	f.each(func(e *entry) {
		if e.dirty {
			out = append(out, ftl.DirtyEntry{LPN: e.lpn, PPN: e.ppn})
		}
	})
	ftl.SortDirty(out)
	return out
}
