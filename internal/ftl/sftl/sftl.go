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
	"cmp"
	"slices"

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
	dirty ftl.Bitset // offsets modified since load
	runs  int
	cost  int64
}

// FTL is the S-FTL translator. Create with New.
type FTL struct {
	cfg        Config
	pageBudget int64 // budget for cached pages
	bufBudget  int64 // budget for the dirty buffer

	pages  lru.List[*cachedPage] // MRU..LRU
	byVTPN []slot                // indexed by VTPN, grown as pages load
	used   int64

	buffered int // entries in the dirty buffer, over every slot

	ePerTP int // entries per translation page, from SetGeometry
}

// slot is S-FTL's state for one translation page: the cached page, or
// else the dirty-buffer entries parked for it. Dirty-buffer entries are
// evicted from sparse dirty pages, pending writeback, and kept in ascending
// offset order so a page's batch is flushed as it stands.
type slot struct {
	page *cachedPage
	buf  []ftl.EntryUpdate
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

// slotOf returns translation page v's slot, or nil if v has never been
// loaded (so nothing is cached or buffered for it).
func (f *FTL) slotOf(v ftl.VTPN) *slot {
	if int(v) < len(f.byVTPN) {
		return &f.byVTPN[v]
	}
	return nil
}

// findOff returns the position of offset off in the ascending buf and
// whether it is there.
func findOff(buf []ftl.EntryUpdate, off int) (int, bool) {
	return slices.BinarySearchFunc(buf, off, func(u ftl.EntryUpdate, off int) int { return cmp.Compare(u.Off, off) })
}

// Translate implements ftl.Translator.
func (f *FTL) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := ftl.OffOf(lpn, f.ePerTP)
	if s := f.slotOf(v); s != nil {
		if p := s.page; p != nil {
			env.NoteLookup(true)
			f.pages.MoveToFront(&p.node)
			return p.vals[off], nil
		}
		// The dirty buffer holds the freshest value for entries flushed
		// out of sparse pages; hitting it avoids the flash read.
		if i, ok := findOff(s.buf, off); ok {
			env.NoteLookup(true)
			return s.buf[i].PPN, nil
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
	s := f.slotOf(ftl.VTPNOf(lpn, f.ePerTP))
	if s == nil {
		return flash.InvalidPPN, false
	}
	off := ftl.OffOf(lpn, f.ePerTP)
	if p := s.page; p != nil {
		return p.vals[off], true
	}
	if i, ok := findOff(s.buf, off); ok {
		return s.buf[i].PPN, true
	}
	return flash.InvalidPPN, false
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
		dirty: ftl.NewBitset(len(vals)),
	}
	copy(p.vals, vals)
	p.node.Value = p
	if int(v) >= len(f.byVTPN) {
		f.byVTPN = append(f.byVTPN, make([]slot, int(v)+1-len(f.byVTPN))...)
	}
	// Merge pending dirty-buffer entries for this page so the cached copy
	// is authoritative and the buffer stays disjoint from cached pages.
	s := &f.byVTPN[v]
	for _, u := range s.buf {
		p.vals[u.Off] = u.PPN
		p.dirty.Add(u.Off)
	}
	f.buffered -= len(s.buf)
	s.buf = s.buf[:0]
	p.runs = countRuns(p.vals)
	p.cost = f.costOf(p.runs)
	s.page = p
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
	f.byVTPN[p.vtpn].page = nil
	f.used -= p.cost
	dirty := p.dirty.Len()
	if dirty == 0 {
		env.NoteReplacement(false)
		return nil
	}
	// Sparsely dirty pages park their dirty entries in the dirty buffer
	// instead of forcing a writeback: the dirty entries were not replaced
	// (they stay cached in the buffer), which is how S-FTL keeps its
	// dirty-replacement probability below DFTL's on random workloads
	// (paper §5.2(1)).
	if dirty < f.cfg.SparseThreshold {
		env.NoteReplacement(false)
		return f.bufferEntries(env, p)
	}
	env.NoteReplacement(true)
	// S-FTL's full-page writeback: the entire page is cached, so no prior
	// read is needed (Tfw only).
	updates := p.dirty.Take(p.vals, nil)
	env.NoteBatchWriteback(len(updates) - 1)
	return env.WriteTP(p.vtpn, updates, true)
}

// takeBuffered appends translation page v's dirty-buffer entries to ups, in
// ascending offset order, and drops them from the buffer.
func (f *FTL) takeBuffered(v ftl.VTPN, ups []ftl.EntryUpdate) []ftl.EntryUpdate {
	s := f.slotOf(v)
	if s == nil {
		return ups
	}
	ups = append(ups, s.buf...)
	f.buffered -= len(s.buf)
	s.buf = s.buf[:0]
	return ups
}

// bufferEntries parks p's dirty entries in the dirty buffer, flushing the
// buffer if it overflows.
func (f *FTL) bufferEntries(env ftl.Env, p *cachedPage) error {
	s := &f.byVTPN[p.vtpn]
	for off := p.dirty.Next(0); off >= 0; off = p.dirty.Next(off + 1) {
		i, ok := findOff(s.buf, off)
		if ok {
			s.buf[i].PPN = p.vals[off]
			continue
		}
		s.buf = slices.Insert(s.buf, i, ftl.EntryUpdate{Off: off, PPN: p.vals[off]})
		f.buffered++
	}
	for int64(f.buffered)*int64(ftl.EntryBytesRAM) > f.bufBudget {
		if err := f.flushLargestGroup(env); err != nil {
			return err
		}
	}
	return nil
}

// flushLargestGroup writes back the translation page with the most buffered
// entries in one batched read-modify-write. The walk is in ascending vtpn
// order, so size ties break toward the smallest vtpn.
func (f *FTL) flushLargestGroup(env ftl.Env) error {
	bestV := ftl.VTPN(-1)
	best := 0
	for v, s := range f.byVTPN {
		if len(s.buf) > best {
			best, bestV = len(s.buf), ftl.VTPN(v)
		}
	}
	if best == 0 {
		return nil
	}
	updates := f.takeBuffered(bestV, nil)
	env.NoteBatchWriteback(len(updates) - 1)
	return env.WriteTP(bestV, updates, false)
}

// Update implements ftl.Translator.
func (f *FTL) Update(env ftl.Env, lpn ftl.LPN, ppn flash.PPN) error {
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := ftl.OffOf(lpn, f.ePerTP)
	var p *cachedPage
	if s := f.slotOf(v); s != nil {
		p = s.page
	}
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
func (f *FTL) setEntry(p *cachedPage, off int, ppn flash.PPN) {
	old := p.vals[off]
	if old == ppn {
		p.dirty.Add(off)
		return
	}
	p.runs += runDelta(p.vals, off, ppn)
	p.vals[off] = ppn
	p.dirty.Add(off)
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
	s := f.slotOf(ftl.VTPNOf(lpn, f.ePerTP))
	if s == nil {
		return
	}
	off := ftl.OffOf(lpn, f.ePerTP)
	if p := s.page; p != nil {
		old := p.vals[off]
		if old != flash.InvalidPPN {
			p.runs += runDelta(p.vals, off, flash.InvalidPPN)
			p.vals[off] = flash.InvalidPPN
			f.used -= p.cost
			p.cost = f.costOf(p.runs)
			f.used += p.cost
		}
		p.dirty.Remove(off)
	}
	if i, ok := findOff(s.buf, off); ok {
		s.buf = slices.Delete(s.buf, i, i+1)
		f.buffered--
	}
}

// DirtyPages implements ftl.Translator: the whole pages are the cached pages
// with a dirty slot (full-page write, no prior read), the rest the dirty
// buffer's pages.
func (f *FTL) DirtyPages(set []uint64, whole bool) {
	if whole {
		for n := f.pages.Front(); n != nil; n = n.Next() {
			if p := n.Value; p.dirty.Len() > 0 {
				set[p.vtpn>>6] |= 1 << (p.vtpn & 63)
			}
		}
		return
	}
	for v, s := range f.byVTPN {
		if len(s.buf) > 0 {
			set[v>>6] |= 1 << (v & 63)
		}
	}
}

// TakeDirty implements ftl.Translator: the cached page's dirty slots, else
// the page's dirty-buffer entries (the two are disjoint: loading a page
// merges its buffered entries).
func (f *FTL) TakeDirty(v ftl.VTPN, ups []ftl.EntryUpdate) []ftl.EntryUpdate {
	if s := f.slotOf(v); s != nil && s.page != nil {
		return s.page.dirty.Take(s.page.vals, ups)
	}
	return f.takeBuffered(v, ups)
}

// RefreshGC implements ftl.Translator: the entry is refreshed in its cached
// page, else in the dirty buffer.
func (f *FTL) RefreshGC(lpn ftl.LPN, ppn flash.PPN) bool {
	s := f.slotOf(ftl.VTPNOf(lpn, f.ePerTP))
	if s == nil {
		return false
	}
	off := ftl.OffOf(lpn, f.ePerTP)
	if p := s.page; p != nil {
		f.setEntry(p, off, ppn)
		return true
	}
	if i, ok := findOff(s.buf, off); ok {
		s.buf[i].PPN = ppn
		return true
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
func runDelta(vals []flash.PPN, off int, ppn flash.PPN) int {
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
		s.DirtyEntries += p.dirty.Len()
		s.DirtyPerPage[p.vtpn] = p.dirty.Len()
	}
	for v, sl := range f.byVTPN {
		if len(sl.buf) > 0 {
			s.Entries += len(sl.buf)
			s.DirtyEntries += len(sl.buf)
			s.DirtyPerPage[ftl.VTPN(v)] += len(sl.buf)
		}
	}
	return s
}

// DirtyCached returns the dirty cached entries (cached-page modifications
// plus the dirty buffer) in ascending LPN order for Device.CheckConsistency.
func (f *FTL) DirtyCached() []ftl.DirtyEntry {
	out := []ftl.DirtyEntry{}
	for v, s := range f.byVTPN {
		if p := s.page; p != nil {
			for off := p.dirty.Next(0); off >= 0; off = p.dirty.Next(off + 1) {
				out = append(out, ftl.DirtyEntry{LPN: ftl.LPNAt(ftl.VTPN(v), off, f.ePerTP), PPN: p.vals[off]})
			}
		}
		for _, u := range s.buf {
			out = append(out, ftl.DirtyEntry{LPN: ftl.LPNAt(ftl.VTPN(v), u.Off, f.ePerTP), PPN: u.PPN})
		}
	}
	return out
}
