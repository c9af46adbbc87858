// Package cdftl implements CDFTL (Qin et al., RTAS 2011), the two-level
// caching baseline discussed in the TPFTL paper (§2.2; excluded from the
// paper's figures because S-FTL dominated it, but implemented here for
// completeness).
//
// CDFTL splits the budget between a first-level CMT — individual mapping
// entries in an LRU list, as in DFTL — and a second-level CTP that caches a
// few whole translation pages and doubles as the CMT's kick-out buffer:
// a dirty entry evicted from the CMT is folded into its CTP page when that
// page is cached (no flash operation), and dirty entries whose pages are
// absent from the CTP are skipped over by the CMT's victim search, so cold
// dirty entries accumulate in the CMT rather than causing per-entry
// writebacks.
package cdftl

import (
	"repro/internal/cacheline"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/lru"
)

// Config tunes CDFTL.
type Config struct {
	// CacheBytes is the total budget.
	CacheBytes int64
	// CMTFraction of the budget feeds the entry-level cache (default 0.5);
	// the rest holds whole translation pages in the CTP.
	CMTFraction float64
}

// ctpPageBytes is the RAM cost of one CTP page: a raw translation page plus
// a header. A CMT entry costs ftl.EntryBytesRAM.
const ctpPageBytes = ftl.DefaultPageBytes + 8

type cmtEntry struct {
	node  lru.Node[*cmtEntry]
	lpn   ftl.LPN
	ppn   flash.PPN
	dirty bool
}

type ctpPage struct {
	node  lru.Node[*ctpPage]
	vtpn  ftl.VTPN
	vals  []flash.PPN
	dirty ftl.Bitset
}

// FTL is the CDFTL translator. Create with New.
type FTL struct {
	cmtCap int // max CMT entries
	ctpCap int // max CTP pages

	cmt    map[ftl.LPN]*cmtEntry
	cmtLRU lru.List[*cmtEntry]

	ctp    map[ftl.VTPN]*ctpPage
	ctpLRU lru.List[*ctpPage]

	ePerTP int // entries per translation page, from SetGeometry
}

var _ ftl.Translator = (*FTL)(nil)
var _ ftl.Inspector = (*FTL)(nil)
var _ ftl.GeometryAware = (*FTL)(nil)

// New returns a CDFTL instance.
func New(cfg Config) *FTL {
	if cfg.CMTFraction == 0 {
		cfg.CMTFraction = 0.5
	}
	cmtBytes := int64(float64(cfg.CacheBytes) * cfg.CMTFraction)
	cmtCap := int(cmtBytes / ftl.EntryBytesRAM)
	if cmtCap < 4 {
		cmtCap = 4
	}
	ctpCap := int((cfg.CacheBytes - cmtBytes) / ctpPageBytes)
	if ctpCap < 1 {
		ctpCap = 1
	}
	return cacheline.Isolated(FTL{
		cmtCap: cmtCap,
		ctpCap: ctpCap,
		cmt:    make(map[ftl.LPN]*cmtEntry),
		ctp:    make(map[ftl.VTPN]*ctpPage),
		ePerTP: ftl.DefaultEntriesPerTP,
	})
}

// SetGeometry implements ftl.GeometryAware.
func (f *FTL) SetGeometry(entriesPerTP int) { f.ePerTP = entriesPerTP }

// Name implements ftl.Translator.
func (f *FTL) Name() string { return "CDFTL" }

// BeginRequest implements ftl.Translator.
func (f *FTL) BeginRequest(first, last ftl.LPN, write bool) {}

// CMTLen returns the number of first-level entries.
func (f *FTL) CMTLen() int { return len(f.cmt) }

// CTPLen returns the number of second-level pages.
func (f *FTL) CTPLen() int { return len(f.ctp) }

// Translate implements ftl.Translator.
func (f *FTL) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	if e, ok := f.cmt[lpn]; ok {
		env.NoteLookup(true)
		f.cmtLRU.MoveToFront(&e.node)
		return e.ppn, nil
	}
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))
	if p, ok := f.ctp[v]; ok {
		// Second-level hit: promote the entry into the CMT without any
		// flash operation. Space is reserved before the value is read:
		// the reservation's writebacks can trigger GC, which updates the
		// CTP page in place.
		env.NoteLookup(true)
		f.ctpLRU.MoveToFront(&p.node)
		if err := f.reserveCMT(env); err != nil {
			return flash.InvalidPPN, err
		}
		ppn := p.vals[off]
		f.addCMT(lpn, ppn, false)
		return ppn, nil
	}
	env.NoteLookup(false)
	if err := f.reserveCMT(env); err != nil {
		return flash.InvalidPPN, err
	}
	p, err := f.loadCTP(env, v)
	if err != nil {
		return flash.InvalidPPN, err
	}
	ppn := p.vals[off]
	f.addCMT(lpn, ppn, false)
	return ppn, nil
}

// Lookup implements ftl.Translator: the CMT entry, else the CTP page's slot.
func (f *FTL) Lookup(lpn ftl.LPN) (flash.PPN, bool) {
	if e, ok := f.cmt[lpn]; ok {
		return e.ppn, true
	}
	if p, ok := f.ctp[ftl.VTPNOf(lpn, f.ePerTP)]; ok {
		return p.vals[ftl.OffOf(lpn, f.ePerTP)], true
	}
	return flash.InvalidPPN, false
}

// loadCTP reads translation page v into the second-level cache.
func (f *FTL) loadCTP(env ftl.Env, v ftl.VTPN) (*ctpPage, error) {
	for len(f.ctp) >= f.ctpCap {
		if err := f.evictCTP(env); err != nil {
			return nil, err
		}
	}
	vals, err := env.ReadTP(v)
	if err != nil {
		return nil, err
	}
	// The cached translation page holds every entry while one was demanded;
	// the remainder counts as prefetched for the phase attribution.
	if pf, ok := env.(interface{ NotePrefetch(int) }); ok {
		pf.NotePrefetch(len(vals) - 1)
	}
	p := &ctpPage{
		vtpn:  v,
		vals:  make([]flash.PPN, len(vals)),
		dirty: ftl.NewBitset(len(vals)),
	}
	copy(p.vals, vals)
	p.node.Value = p
	f.ctp[v] = p
	f.ctpLRU.PushFront(&p.node)
	return p, nil
}

// evictCTP evicts the LRU second-level page, writing it back whole when
// dirty (full-page write, no prior read).
func (f *FTL) evictCTP(env ftl.Env) error {
	n := f.ctpLRU.Back()
	if n == nil {
		return nil
	}
	p := n.Value
	f.ctpLRU.Remove(n)
	delete(f.ctp, p.vtpn)
	updates := p.dirty.Take(p.vals, nil)
	env.NoteReplacement(len(updates) > 0)
	if len(updates) == 0 {
		return nil
	}
	env.NoteBatchWriteback(len(updates) - 1)
	return env.WriteTP(p.vtpn, updates, true)
}

// reserveCMT evicts first-level entries until one slot is free.
func (f *FTL) reserveCMT(env ftl.Env) error {
	for len(f.cmt) >= f.cmtCap {
		if err := f.evictCMT(env); err != nil {
			return err
		}
	}
	return nil
}

// addCMT inserts an entry into the first level; the caller must have
// reserved space.
func (f *FTL) addCMT(lpn ftl.LPN, ppn flash.PPN, dirty bool) {
	e := &cmtEntry{lpn: lpn, ppn: ppn, dirty: dirty}
	e.node.Value = e
	f.cmt[lpn] = e
	f.cmtLRU.PushFront(&e.node)
}

// evictCMT picks the CMT victim: the LRU entry that is clean or whose page
// is in the CTP ("replacements of dirty entries only occur in CTP"); if
// every entry is a cold dirty one, the LRU dirty entry is written back
// directly as a fallback so progress is always possible.
func (f *FTL) evictCMT(env ftl.Env) error {
	var victim *cmtEntry
	for n := f.cmtLRU.Back(); n != nil; n = n.Prev() {
		e := n.Value
		if !e.dirty {
			victim = e
			break
		}
		if _, ok := f.ctp[ftl.VTPNOf(e.lpn, f.ePerTP)]; ok {
			victim = e
			break
		}
	}
	forced := false
	if victim == nil {
		victim = f.cmtLRU.Back().Value
		forced = true
	}
	f.cmtLRU.Remove(&victim.node)
	delete(f.cmt, victim.lpn)
	env.NoteReplacement(victim.dirty)
	if !victim.dirty {
		return nil
	}
	v := ftl.VTPNOf(victim.lpn, f.ePerTP)
	off := ftl.OffOf(victim.lpn, f.ePerTP)
	if p, ok := f.ctp[v]; ok && !forced {
		// Fold into the cached page: deferred, no flash operation.
		p.vals[off] = victim.ppn
		p.dirty.Add(off)
		return nil
	}
	up := []ftl.EntryUpdate{{Off: off, PPN: victim.ppn}}
	return env.WriteTP(v, up, false)
}

// Update implements ftl.Translator.
func (f *FTL) Update(env ftl.Env, lpn ftl.LPN, ppn flash.PPN) error {
	if e, ok := f.cmt[lpn]; ok {
		e.ppn = ppn
		e.dirty = true
		f.cmtLRU.MoveToFront(&e.node)
		return nil
	}
	if err := f.reserveCMT(env); err != nil {
		return err
	}
	f.addCMT(lpn, ppn, true)
	return nil
}

// Discard implements ftl.Translator: drop the trimmed page's CMT entry and
// clear its CTP slot in RAM. The CTP slot is set to InvalidPPN with the
// dirty mark removed so no later writeback resurrects the dead mapping (the
// device rewrites the translation page itself as part of the discard).
func (f *FTL) Discard(lpn ftl.LPN) {
	if e, ok := f.cmt[lpn]; ok {
		f.cmtLRU.Remove(&e.node)
		delete(f.cmt, lpn)
	}
	if p, ok := f.ctp[ftl.VTPNOf(lpn, f.ePerTP)]; ok {
		off := ftl.OffOf(lpn, f.ePerTP)
		p.vals[off] = flash.InvalidPPN
		p.dirty.Remove(off)
	}
}

// DirtyPages implements ftl.Translator. The whole pages are the CTP pages
// with a dirty slot or a dirty CMT entry: at a flush a CMT entry folds into
// its cached page (the normal kick-out path, minus the flash cost), which
// then writes back whole. The rest are the pages of the cold dirty CMT
// entries, one read-modify-write each.
func (f *FTL) DirtyPages(set []uint64, whole bool) {
	if whole {
		for n := f.ctpLRU.Front(); n != nil; n = n.Next() {
			if p := n.Value; p.dirty.Len() > 0 {
				set[p.vtpn>>6] |= 1 << (p.vtpn & 63)
			}
		}
	}
	for n := f.cmtLRU.Front(); n != nil; n = n.Next() {
		e := n.Value
		if !e.dirty {
			continue
		}
		v := ftl.VTPNOf(e.lpn, f.ePerTP)
		if _, cached := f.ctp[v]; cached == whole {
			set[v>>6] |= 1 << (v & 63)
		}
	}
}

// TakeDirty implements ftl.Translator: page v's dirty CMT entries, folded
// into its CTP page when that is cached and then taken with the page's
// other dirty slots.
func (f *FTL) TakeDirty(v ftl.VTPN, ups []ftl.EntryUpdate) []ftl.EntryUpdate {
	p, cached := f.ctp[v]
	first := ftl.LPNAt(v, 0, f.ePerTP)
	for off := 0; off < f.ePerTP; off++ {
		e, ok := f.cmt[first+ftl.LPN(off)]
		if !ok || !e.dirty {
			continue
		}
		e.dirty = false
		if cached {
			p.vals[off] = e.ppn
			p.dirty.Add(off)
		} else {
			ups = append(ups, ftl.EntryUpdate{Off: off, PPN: e.ppn})
		}
	}
	if cached {
		ups = p.dirty.Take(p.vals, ups)
	}
	return ups
}

// RefreshGC implements ftl.Translator: the entry is refreshed in whichever
// level caches it, the CMT first.
func (f *FTL) RefreshGC(lpn ftl.LPN, ppn flash.PPN) bool {
	if e, ok := f.cmt[lpn]; ok {
		e.ppn = ppn
		e.dirty = true
		return true
	}
	if p, ok := f.ctp[ftl.VTPNOf(lpn, f.ePerTP)]; ok {
		off := ftl.OffOf(lpn, f.ePerTP)
		p.vals[off] = ppn
		p.dirty.Add(off)
		return true
	}
	return false
}

// Snapshot implements ftl.Inspector.
func (f *FTL) Snapshot() ftl.CacheSnapshot {
	s := ftl.CacheSnapshot{DirtyPerPage: map[ftl.VTPN]int{}}
	for n := f.cmtLRU.Front(); n != nil; n = n.Next() {
		d := 0
		if n.Value.dirty {
			d = 1
		}
		s.Entries++
		s.DirtyEntries += d
		s.DirtyPerPage[ftl.VTPNOf(n.Value.lpn, f.ePerTP)] += d
	}
	for n := f.ctpLRU.Front(); n != nil; n = n.Next() {
		p := n.Value
		s.Entries += len(p.vals)
		s.DirtyEntries += p.dirty.Len()
		s.DirtyPerPage[p.vtpn] += p.dirty.Len()
	}
	s.TPNodes = len(s.DirtyPerPage)
	s.UsedBytes = int64(len(f.cmt))*ftl.EntryBytesRAM + int64(len(f.ctp))*ctpPageBytes
	return s
}

// DirtyCached returns the dirty entries in ascending LPN order for
// Device.CheckConsistency. When an LPN is dirty in both levels, the CMT
// value is the authoritative (newest) one.
func (f *FTL) DirtyCached() []ftl.DirtyEntry {
	out := []ftl.DirtyEntry{}
	for n := f.ctpLRU.Front(); n != nil; n = n.Next() {
		p := n.Value
		for off := p.dirty.Next(0); off >= 0; off = p.dirty.Next(off + 1) {
			lpn := ftl.LPNAt(p.vtpn, off, f.ePerTP)
			if e, ok := f.cmt[lpn]; !ok || !e.dirty {
				out = append(out, ftl.DirtyEntry{LPN: lpn, PPN: p.vals[off]})
			}
		}
	}
	for n := f.cmtLRU.Front(); n != nil; n = n.Next() {
		if e := n.Value; e.dirty {
			out = append(out, ftl.DirtyEntry{LPN: e.lpn, PPN: e.ppn})
		}
	}
	ftl.SortDirty(out)
	return out
}
