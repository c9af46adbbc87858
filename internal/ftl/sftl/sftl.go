// Package sftl implements S-FTL (Jiang et al., MSST 2011), the
// spatial-locality baseline of the TPFTL paper.
//
// S-FTL's caching object is an entire translation page, organized in a
// page-level LRU list. Cached pages are charged at their compressed size:
// runs of consecutive PPNs — the common case right after sequential writes —
// collapse to one run descriptor, so a fully sequential page costs almost
// nothing while a fully random one costs its raw size. Because the whole
// page is cached, writing back a dirty page needs no prior read (Tfw only;
// the paper notes this in §3.1).
//
// A small reserved dirty buffer postpones the replacement of sparsely
// dispersed dirty entries: when an evicted page has only a few dirty
// entries, they move to the buffer (8 B each) instead of forcing a page
// writeback; the buffer is flushed per translation page when full. The
// paper's §5.2 attributes S-FTL's low dirty-replacement probability on
// random workloads to this buffer, and its poor behaviour on sequential
// workloads to the buffer's small size.
package sftl

import (
	"repro/internal/cacheline"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/lru"
)

// Config tunes S-FTL.
type Config struct {
	// CacheBytes is the total mapping-cache budget.
	CacheBytes int64
	// DirtyBufferFraction of the budget is reserved for the dirty buffer
	// (default 1/8).
	DirtyBufferFraction float64
	// SparseThreshold: an evicted dirty page with fewer dirty entries than
	// this moves them to the dirty buffer instead of writing back
	// (default 8).
	SparseThreshold int
	// RunBytes is the charged size of one compressed run (default 8:
	// start PPN + length). PageHeaderBytes is charged per cached page
	// (default 8).
	RunBytes        int
	PageHeaderBytes int
}

// cachedPage is one cached (compressed) translation page.
type cachedPage struct {
	node  lru.Node[*cachedPage]
	vtpn  ftl.VTPN
	vals  []flash.PPN
	dirty map[int32]struct{} // offsets modified since load
	runs  int
	cost  int64
}

// FTL is the S-FTL translator. Create with New.
type FTL struct {
	cfg        Config
	pageBudget int64 // budget for cached pages
	bufBudget  int64 // budget for the dirty buffer

	pages  lru.List[*cachedPage] // MRU..LRU
	byVTPN map[ftl.VTPN]*cachedPage
	used   int64

	// Dirty buffer: entries evicted from sparse dirty pages, pending
	// writeback, grouped per translation page for batched flushes.
	buffer   map[ftl.VTPN]map[int32]flash.PPN
	buffered int

	ePerTP int // entries per translation page, from SetGeometry
}

var _ ftl.Translator = (*FTL)(nil)
var _ ftl.Inspector = (*FTL)(nil)
var _ ftl.GeometryAware = (*FTL)(nil)

// New returns an S-FTL instance.
func New(cfg Config) *FTL {
	if cfg.DirtyBufferFraction == 0 {
		cfg.DirtyBufferFraction = 0.125
	}
	if cfg.SparseThreshold == 0 {
		cfg.SparseThreshold = 8
	}
	if cfg.RunBytes == 0 {
		cfg.RunBytes = 8
	}
	if cfg.PageHeaderBytes == 0 {
		cfg.PageHeaderBytes = 8
	}
	buf := int64(float64(cfg.CacheBytes) * cfg.DirtyBufferFraction)
	if buf < int64(ftl.EntryBytesRAM) {
		buf = int64(ftl.EntryBytesRAM)
	}
	pageBudget := cfg.CacheBytes - buf
	if min := int64(cfg.PageHeaderBytes + cfg.RunBytes); pageBudget < min {
		pageBudget = min
	}
	return cacheline.Isolated(FTL{
		cfg:        cfg,
		pageBudget: pageBudget,
		bufBudget:  buf,
		byVTPN:     make(map[ftl.VTPN]*cachedPage),
		buffer:     make(map[ftl.VTPN]map[int32]flash.PPN),
		ePerTP:     ftl.DefaultEntriesPerTP,
	})
}

// SetGeometry implements ftl.GeometryAware.
func (f *FTL) SetGeometry(entriesPerTP int) { f.ePerTP = entriesPerTP }

// Name implements ftl.Translator.
func (f *FTL) Name() string { return "S-FTL" }

// BeginRequest implements ftl.Translator.
func (f *FTL) BeginRequest(first, last ftl.LPN, write bool) {}

// CachedPages returns the number of cached translation pages.
func (f *FTL) CachedPages() int { return f.pages.Len() }

// BufferedEntries returns the number of entries in the dirty buffer.
func (f *FTL) BufferedEntries() int { return f.buffered }

// UsedBytes returns the charged page-cache usage.
func (f *FTL) UsedBytes() int64 { return f.used }

// Translate implements ftl.Translator.
func (f *FTL) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))
	if p := f.byVTPN[v]; p != nil {
		env.NoteLookup(true)
		f.pages.MoveToFront(&p.node)
		return p.vals[off], nil
	}
	// The dirty buffer holds the freshest value for entries flushed out of
	// sparse pages; hitting it avoids the flash read.
	if ents := f.buffer[v]; ents != nil {
		if ppn, ok := ents[off]; ok {
			env.NoteLookup(true)
			return ppn, nil
		}
	}
	env.NoteLookup(false)
	p, err := f.loadPage(env, v)
	if err != nil {
		return flash.InvalidPPN, err
	}
	return p.vals[off], nil
}

// Lookup implements ftl.Translator: the cached page's slot, else the dirty
// buffer's entry.
func (f *FTL) Lookup(lpn ftl.LPN) (flash.PPN, bool) {
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))
	if p := f.byVTPN[v]; p != nil {
		return p.vals[off], true
	}
	ppn, ok := f.buffer[v][off]
	if !ok {
		ppn = flash.InvalidPPN
	}
	return ppn, ok
}

// loadPage reads translation page v into the cache, evicting as needed.
// Unlike entry-granularity schemes, the page is installed in the cache
// BEFORE any eviction runs: once resident, GC triggered by eviction
// writebacks updates the cached copy in place, so no stale value can be
// returned (the framework's staleness discipline by a different route).
func (f *FTL) loadPage(env ftl.Env, v ftl.VTPN) (*cachedPage, error) {
	vals, err := env.ReadTP(v)
	if err != nil {
		return nil, err
	}
	// A whole-page load installs every entry of the translation page while
	// the request demanded one: the rest is prefetch, which the phase
	// attribution (obs.PhaseXlatePrefetch) classifies by.
	if pf, ok := env.(interface{ NotePrefetch(int) }); ok {
		pf.NotePrefetch(len(vals) - 1)
	}
	p := &cachedPage{
		vtpn:  v,
		vals:  make([]flash.PPN, len(vals)),
		dirty: make(map[int32]struct{}),
	}
	copy(p.vals, vals)
	p.node.Value = p
	// Merge pending dirty-buffer entries for this page so the cached copy
	// is authoritative and the buffer stays disjoint from cached pages.
	if ents := f.buffer[v]; ents != nil {
		for off, ppn := range ents {
			p.vals[off] = ppn
			p.dirty[off] = struct{}{}
		}
		f.buffered -= len(ents)
		delete(f.buffer, v)
	}
	p.runs = countRuns(p.vals)
	p.cost = f.costOf(p.runs)
	f.byVTPN[v] = p
	f.pages.PushFront(&p.node)
	f.used += p.cost
	// The exact compressed size is only known now; evict if over budget.
	return p, f.fitBudget(env)
}

// evictLRU evicts the least recently used cached page.
func (f *FTL) evictLRU(env ftl.Env) error {
	n := f.pages.Back()
	if n == nil {
		return nil
	}
	p := n.Value
	f.pages.Remove(n)
	delete(f.byVTPN, p.vtpn)
	f.used -= p.cost
	if len(p.dirty) == 0 {
		env.NoteReplacement(false)
		return nil
	}
	// Sparsely dirty pages park their dirty entries in the dirty buffer
	// instead of forcing a writeback: the dirty entries were not replaced
	// (they stay cached in the buffer), which is how S-FTL keeps its
	// dirty-replacement probability below DFTL's on random workloads
	// (paper §5.2(1)).
	if len(p.dirty) < f.cfg.SparseThreshold {
		env.NoteReplacement(false)
		return f.bufferEntries(env, p)
	}
	env.NoteReplacement(true)
	// S-FTL's full-page writeback: the entire page is cached, so no prior
	// read is needed (Tfw only).
	updates := takePage(p, nil)
	env.NoteBatchWriteback(len(updates) - 1)
	return env.WriteTP(p.vtpn, updates, true)
}

// takePage appends the dirty slots of cached page p to ups and marks them
// clean. Updates are emitted in ascending offset order: p.dirty is a map,
// and letting its iteration order leak into the update list made otherwise
// identical runs diverge.
func takePage(p *cachedPage, ups []ftl.EntryUpdate) []ftl.EntryUpdate {
	n := len(ups)
	for off := range p.dirty {
		ups = append(ups, ftl.EntryUpdate{Off: int(off), PPN: p.vals[off]})
	}
	clear(p.dirty)
	ftl.SortUpdates(ups[n:])
	return ups
}

// takeBuffered appends translation page v's dirty-buffer entries to ups, in
// ascending offset order, and drops them from the buffer.
func (f *FTL) takeBuffered(v ftl.VTPN, ups []ftl.EntryUpdate) []ftl.EntryUpdate {
	ents := f.buffer[v]
	n := len(ups)
	for off, ppn := range ents {
		ups = append(ups, ftl.EntryUpdate{Off: int(off), PPN: ppn})
	}
	ftl.SortUpdates(ups[n:])
	f.buffered -= len(ents)
	delete(f.buffer, v)
	return ups
}

// bufferEntries parks p's dirty entries in the dirty buffer, flushing the
// buffer if it overflows.
func (f *FTL) bufferEntries(env ftl.Env, p *cachedPage) error {
	ents := f.buffer[p.vtpn]
	if ents == nil {
		ents = make(map[int32]flash.PPN)
		f.buffer[p.vtpn] = ents
	}
	for off := range p.dirty {
		if _, ok := ents[off]; !ok {
			f.buffered++
		}
		ents[off] = p.vals[off]
	}
	for int64(f.buffered)*int64(ftl.EntryBytesRAM) > f.bufBudget {
		if err := f.flushLargestGroup(env); err != nil {
			return err
		}
	}
	return nil
}

// flushLargestGroup writes back the translation page with the most buffered
// entries in one batched read-modify-write. Size ties break toward the
// smallest vtpn: left to map iteration order, the choice made the flush —
// and through it physical page allocation — differ between identical runs.
func (f *FTL) flushLargestGroup(env ftl.Env) error {
	bestV := ftl.VTPN(-1)
	best := -1
	//ftl:orderinsensitive argmax with deterministic tie-break toward the smallest vtpn
	for v, ents := range f.buffer {
		if len(ents) > best || (len(ents) == best && v < bestV) {
			best = len(ents)
			bestV = v
		}
	}
	if best < 0 {
		return nil
	}
	updates := f.takeBuffered(bestV, nil)
	env.NoteBatchWriteback(len(updates) - 1)
	return env.WriteTP(bestV, updates, false)
}

// Update implements ftl.Translator.
func (f *FTL) Update(env ftl.Env, lpn ftl.LPN, ppn flash.PPN) error {
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))
	p := f.byVTPN[v]
	if p == nil {
		// The write path populates the page via Translate first; a
		// standalone Update loads it.
		var err error
		if p, err = f.loadPage(env, v); err != nil {
			return err
		}
	}
	f.setEntry(p, off, ppn)
	f.pages.MoveToFront(&p.node)
	// A PPN update can break runs and grow the compressed size.
	return f.fitBudget(env)
}

// setEntry updates one slot and incrementally maintains the run count.
func (f *FTL) setEntry(p *cachedPage, off int32, ppn flash.PPN) {
	old := p.vals[off]
	if old == ppn {
		p.dirty[off] = struct{}{}
		return
	}
	p.runs += runDelta(p.vals, off, ppn)
	p.vals[off] = ppn
	p.dirty[off] = struct{}{}
	f.used -= p.cost
	p.cost = f.costOf(p.runs)
	f.used += p.cost
}

// Discard implements ftl.Translator: the trimmed page's cached slot is
// cleared in RAM without any writeback. The slot is set to InvalidPPN and
// its dirty mark removed — the device rewrites the translation page itself,
// so nothing here may later write the dead mapping (or an Invalid entry)
// back to flash. Any pending dirty-buffer copy is dropped the same way.
func (f *FTL) Discard(lpn ftl.LPN) {
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))
	if p := f.byVTPN[v]; p != nil {
		old := p.vals[off]
		if old != flash.InvalidPPN {
			p.runs += runDelta(p.vals, off, flash.InvalidPPN)
			p.vals[off] = flash.InvalidPPN
			f.used -= p.cost
			p.cost = f.costOf(p.runs)
			f.used += p.cost
		}
		delete(p.dirty, off)
	}
	if ents := f.buffer[v]; ents != nil {
		if _, ok := ents[off]; ok {
			delete(ents, off)
			f.buffered--
			if len(ents) == 0 {
				delete(f.buffer, v)
			}
		}
	}
}

// DirtyPages implements ftl.Translator: the whole pages are the cached pages
// with a dirty slot (full-page write, no prior read), the rest the dirty
// buffer's pages.
func (f *FTL) DirtyPages(set []uint64, whole bool) {
	if whole {
		for n := f.pages.Front(); n != nil; n = n.Next() {
			if p := n.Value; len(p.dirty) > 0 {
				set[p.vtpn>>6] |= 1 << (p.vtpn & 63)
			}
		}
		return
	}
	for v := range f.buffer {
		set[v>>6] |= 1 << (v & 63)
	}
}

// TakeDirty implements ftl.Translator: the cached page's dirty slots, else
// the page's dirty-buffer entries (the two are disjoint: loading a page
// merges its buffered entries).
func (f *FTL) TakeDirty(v ftl.VTPN, ups []ftl.EntryUpdate) []ftl.EntryUpdate {
	if p := f.byVTPN[v]; p != nil {
		return takePage(p, ups)
	}
	return f.takeBuffered(v, ups)
}

// RefreshGC implements ftl.Translator: the entry is refreshed in its cached
// page, else in the dirty buffer.
func (f *FTL) RefreshGC(lpn ftl.LPN, ppn flash.PPN) bool {
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))
	if p := f.byVTPN[v]; p != nil {
		f.setEntry(p, off, ppn)
		return true
	}
	if ents := f.buffer[v]; ents != nil {
		if _, ok := ents[off]; ok {
			ents[off] = ppn
			return true
		}
	}
	return false
}

// EndGCBatch implements ftl.GCBatchEnder: the collection's refreshes may
// have grown compressed page sizes past the budget.
func (f *FTL) EndGCBatch(env ftl.Env) error { return f.fitBudget(env) }

// fitBudget evicts LRU pages until the cached pages fit their budget.
func (f *FTL) fitBudget(env ftl.Env) error {
	for f.used > f.pageBudget && f.pages.Len() > 1 {
		if err := f.evictLRU(env); err != nil {
			return err
		}
	}
	return nil
}

func (f *FTL) costOf(runs int) int64 {
	c := int64(f.cfg.PageHeaderBytes) + int64(runs)*int64(f.cfg.RunBytes)
	if raw := int64(f.cfg.PageHeaderBytes) + int64(f.ePerTP)*ftl.EntryBytesInFlash; c > raw {
		c = raw
	}
	return c
}

// countRuns returns the number of maximal consecutive-PPN runs in vals.
func countRuns(vals []flash.PPN) int {
	if len(vals) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(vals); i++ {
		if !consec(vals[i-1], vals[i]) {
			runs++
		}
	}
	return runs
}

// consec reports whether b directly follows a (both valid).
func consec(a, b flash.PPN) bool {
	return a.Valid() && b.Valid() && b == a+1
}

// runDelta returns the change in run count when vals[off] becomes ppn.
func runDelta(vals []flash.PPN, off int32, ppn flash.PPN) int {
	joins := func(x flash.PPN) int {
		j := 0
		if off > 0 && consec(vals[off-1], x) {
			j++
		}
		if int(off) < len(vals)-1 && consec(x, vals[off+1]) {
			j++
		}
		return j
	}
	// Each join with a neighbour removes one run boundary.
	return joins(vals[off]) - joins(ppn)
}

// Snapshot implements ftl.Inspector.
func (f *FTL) Snapshot() ftl.CacheSnapshot {
	s := ftl.CacheSnapshot{
		TPNodes:      f.pages.Len(),
		UsedBytes:    f.used + int64(f.buffered)*int64(ftl.EntryBytesRAM),
		DirtyPerPage: make(map[ftl.VTPN]int, f.pages.Len()),
	}
	for n := f.pages.Front(); n != nil; n = n.Next() {
		p := n.Value
		s.Entries += len(p.vals)
		s.DirtyEntries += len(p.dirty)
		s.DirtyPerPage[p.vtpn] = len(p.dirty)
	}
	for v, ents := range f.buffer {
		s.Entries += len(ents)
		s.DirtyEntries += len(ents)
		s.DirtyPerPage[v] += len(ents)
	}
	return s
}

// DirtyCached returns the LPN→PPN map of dirty cached entries (cached-page
// modifications plus the dirty buffer) for Device.CheckConsistency.
func (f *FTL) DirtyCached() map[ftl.LPN]flash.PPN {
	out := make(map[ftl.LPN]flash.PPN)
	for v, p := range f.byVTPN {
		for off := range p.dirty {
			out[ftl.LPNAt(v, int(off), f.ePerTP)] = p.vals[off]
		}
	}
	for v, ents := range f.buffer {
		for off, ppn := range ents {
			out[ftl.LPNAt(v, int(off), f.ePerTP)] = ppn
		}
	}
	return out
}
