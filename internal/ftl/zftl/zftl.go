// Package zftl implements ZFTL (Mingbang et al., ICCT 2011), the zone-based
// demand FTL the paper's §2.2 discusses.
//
// ZFTL partitions the logical space into zones and caches mapping
// information only for the recently accessed zone: within the active zone,
// translation pages are loaded on demand into the second-tier cache (whole
// pages), while a small first-tier area accumulates dirty entries and
// evicts them in batches. An access outside the active zone triggers a zone
// switch: every dirty entry of the old zone is flushed (batched per
// translation page) and the tier caches are dropped. The paper's critique —
// "Zone switches are cumbersome and incur significant overhead" — falls out
// directly: workloads hopping between zones pay repeated flush/reload
// cycles.
package zftl

import (
	"cmp"
	"slices"

	"repro/internal/cacheline"
	"repro/internal/flash"
	"repro/internal/ftl"
)

// Config tunes ZFTL.
type Config struct {
	// CacheBytes is the mapping-cache budget; it bounds the number of
	// second-tier translation pages (raw size each).
	CacheBytes int64
	// ZoneTPs is the zone size in translation pages (default 8, i.e.
	// 32 MB zones with 4 KB pages).
	ZoneTPs int
	// Tier1Entries is the dirty-entry area size (default 64 entries).
	Tier1Entries int
}

// tier2Page is a cached translation page of the active zone.
type tier2Page struct {
	vals  []flash.PPN
	dirty ftl.Bitset
}

// FTL is the ZFTL translator. Create with New.
type FTL struct {
	cfg      Config
	tier2Cap int

	zone  int              // active zone, -1 initially
	tier2 []*tier2Page     // the active zone's cached pages, by VTPN within the zone
	order []ftl.VTPN       // FIFO of loaded pages for tier-2 eviction
	tier1 []ftl.DirtyEntry // the dirty-entry area, in ascending LPN order

	switches int64
	ePerTP   int // entries per translation page, from SetGeometry
}

var _ ftl.Translator = (*FTL)(nil)
var _ ftl.GeometryAware = (*FTL)(nil)

// New returns a ZFTL instance.
func New(cfg Config) *FTL {
	if cfg.ZoneTPs == 0 {
		cfg.ZoneTPs = 8
	}
	if cfg.Tier1Entries == 0 {
		cfg.Tier1Entries = 64
	}
	tier2Cap := int(cfg.CacheBytes / (ftl.DefaultPageBytes + 8))
	if tier2Cap < 1 {
		tier2Cap = 1
	}
	if tier2Cap > cfg.ZoneTPs {
		tier2Cap = cfg.ZoneTPs
	}
	return cacheline.Isolated(FTL{
		cfg:      cfg,
		tier2Cap: tier2Cap,
		zone:     -1,
		tier2:    make([]*tier2Page, cfg.ZoneTPs),
		ePerTP:   ftl.DefaultEntriesPerTP,
	})
}

// SetGeometry implements ftl.GeometryAware.
func (f *FTL) SetGeometry(entriesPerTP int) { f.ePerTP = entriesPerTP }

// Name implements ftl.Translator.
func (f *FTL) Name() string { return "ZFTL" }

// BeginRequest implements ftl.Translator.
func (f *FTL) BeginRequest(first, last ftl.LPN, write bool) {}

// ZoneSwitches returns the number of zone switches performed.
func (f *FTL) ZoneSwitches() int64 { return f.switches }

// ActiveZone returns the current zone (-1 before the first access).
func (f *FTL) ActiveZone() int { return f.zone }

func (f *FTL) zoneOf(v ftl.VTPN) int { return int(v) / f.cfg.ZoneTPs }

// page returns v's tier-2 page, nil unless it is cached.
func (f *FTL) page(v ftl.VTPN) *tier2Page {
	if f.zoneOf(v) != f.zone {
		return nil
	}
	return f.tier2[int(v)-f.zone*f.cfg.ZoneTPs]
}

// find returns lpn's position in tier 1, which is kept in ascending LPN
// order, and whether it is there.
func (f *FTL) find(lpn ftl.LPN) (int, bool) {
	return slices.BinarySearchFunc(f.tier1, lpn, byLPN)
}

func byLPN(e ftl.DirtyEntry, lpn ftl.LPN) int { return cmp.Compare(e.LPN, lpn) }

// run returns the bounds of page v's entries in tier 1.
func (f *FTL) run(v ftl.VTPN) (lo, hi int) {
	lo, _ = f.find(ftl.LPNAt(v, 0, f.ePerTP))
	hi, _ = f.find(ftl.LPNAt(v+1, 0, f.ePerTP))
	return lo, hi
}

// Translate implements ftl.Translator.
func (f *FTL) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))

	// Tier 1 holds the freshest values regardless of zone.
	if i, ok := f.find(lpn); ok {
		env.NoteLookup(true)
		return f.tier1[i].PPN, nil
	}
	if f.zoneOf(v) != f.zone {
		env.NoteLookup(false)
		if err := f.switchZone(env, f.zoneOf(v)); err != nil {
			return flash.InvalidPPN, err
		}
		p, err := f.loadTier2(env, v)
		if err != nil {
			return flash.InvalidPPN, err
		}
		return p.vals[off], nil
	}
	if p := f.page(v); p != nil {
		env.NoteLookup(true)
		return p.vals[off], nil
	}
	env.NoteLookup(false)
	p, err := f.loadTier2(env, v)
	if err != nil {
		return flash.InvalidPPN, err
	}
	return p.vals[off], nil
}

// Lookup implements ftl.Translator: the tier-1 entry, else the tier-2
// page's slot.
func (f *FTL) Lookup(lpn ftl.LPN) (flash.PPN, bool) {
	if i, ok := f.find(lpn); ok {
		return f.tier1[i].PPN, true
	}
	if p := f.page(ftl.VTPNOf(lpn, f.ePerTP)); p != nil {
		return p.vals[ftl.OffOf(lpn, f.ePerTP)], true
	}
	return flash.InvalidPPN, false
}

// switchZone flushes the old zone's dirty state and activates the new zone.
// Only pages with a dirty entry are written: a clean tier-2 page is dropped
// as it is. The caches are dropped BEFORE the flash writes: a GC triggered
// by a flush must see an empty cache (and update persisted state directly),
// not park fresh values in structures about to be discarded.
func (f *FTL) switchZone(env ftl.Env, zone int) error {
	set := ftl.NewBitset(env.NumTPs())
	f.DirtyPages(set, false)
	var pages []ftl.VTPN
	var batches [][]ftl.EntryUpdate
	for v := set.Next(0); v >= 0; v = set.Next(v + 1) {
		pages = append(pages, ftl.VTPN(v))
		batches = append(batches, f.TakeDirty(ftl.VTPN(v), nil))
	}
	f.tier1 = f.tier1[:0]
	clear(f.tier2)
	f.order = f.order[:0]
	f.zone = zone
	f.switches++
	for i, v := range pages {
		env.NoteBatchWriteback(len(batches[i]) - 1)
		if err := env.WriteTP(v, batches[i], false); err != nil {
			return err
		}
	}
	return nil
}

// loadTier2 reads translation page v (must be in the active zone) into the
// second tier, evicting FIFO.
func (f *FTL) loadTier2(env ftl.Env, v ftl.VTPN) (*tier2Page, error) {
	for len(f.order) >= f.tier2Cap {
		victim := f.order[0]
		f.order = f.order[1:]
		ups := f.TakeDirty(victim, nil)
		env.NoteReplacement(len(ups) > 0)
		// Unlink before the writeback so a GC triggered by the flush
		// updates persisted state directly instead of this dropped page.
		f.tier2[int(victim)-f.zone*f.cfg.ZoneTPs] = nil
		if len(ups) > 0 {
			env.NoteBatchWriteback(len(ups) - 1)
			if err := env.WriteTP(victim, ups, true); err != nil {
				return nil, err
			}
		}
	}
	vals, err := env.ReadTP(v)
	if err != nil {
		return nil, err
	}
	// Tier-2 caches the whole translation page for one demanded entry; the
	// remainder counts as prefetched for the phase attribution.
	if pf, ok := env.(interface{ NotePrefetch(int) }); ok {
		pf.NotePrefetch(len(vals) - 1)
	}
	p := &tier2Page{vals: make([]flash.PPN, len(vals)), dirty: ftl.NewBitset(len(vals))}
	copy(p.vals, vals)
	// Fold in any tier-1 entries for this page (they are newer).
	lo, hi := f.run(v)
	for _, e := range f.tier1[lo:hi] {
		off := ftl.OffOf(e.LPN, f.ePerTP)
		p.vals[off] = e.PPN
		p.dirty.Add(off)
	}
	f.tier1 = slices.Delete(f.tier1, lo, hi)
	f.tier2[int(v)-f.zone*f.cfg.ZoneTPs] = p
	f.order = append(f.order, v)
	return p, nil
}

// Update implements ftl.Translator: new mappings land in the page if cached
// or the tier-1 dirty area, which evicts in batches when full.
func (f *FTL) Update(env ftl.Env, lpn ftl.LPN, ppn flash.PPN) error {
	if p := f.page(ftl.VTPNOf(lpn, f.ePerTP)); p != nil {
		off := ftl.OffOf(lpn, f.ePerTP)
		p.vals[off] = ppn
		p.dirty.Add(off)
		return nil
	}
	if i, ok := f.find(lpn); ok {
		f.tier1[i].PPN = ppn
	} else {
		f.tier1 = slices.Insert(f.tier1, i, ftl.DirtyEntry{LPN: lpn, PPN: ppn})
	}
	if len(f.tier1) > f.cfg.Tier1Entries {
		return f.evictTier1Batch(env)
	}
	return nil
}

// evictTier1Batch flushes the translation page with the most tier-1 entries
// (ZFTL's batch eviction). Tier 1 is walked page by page in ascending vtpn
// order, so size ties break toward the smallest vtpn.
func (f *FTL) evictTier1Batch(env ftl.Env) error {
	var bestV ftl.VTPN
	best := 0
	for lo := 0; lo < len(f.tier1); {
		v := ftl.VTPNOf(f.tier1[lo].LPN, f.ePerTP)
		_, hi := f.run(v)
		if hi-lo > best {
			best, bestV = hi-lo, v
		}
		lo = hi
	}
	if best == 0 {
		return nil
	}
	ups := f.TakeDirty(bestV, make([]ftl.EntryUpdate, 0, best))
	for range ups {
		env.NoteReplacement(true)
	}
	env.NoteBatchWriteback(len(ups) - 1)
	return env.WriteTP(bestV, ups, false)
}

// Discard implements ftl.Translator: drop the trimmed page's tier-1 entry
// and clear its tier-2 slot in RAM (InvalidPPN, dirty mark removed) so no
// later flush writes the dead mapping back; the device rewrites the
// translation page itself as part of the discard.
func (f *FTL) Discard(lpn ftl.LPN) {
	if i, ok := f.find(lpn); ok {
		f.tier1 = slices.Delete(f.tier1, i, i+1)
	}
	if p := f.page(ftl.VTPNOf(lpn, f.ePerTP)); p != nil {
		off := ftl.OffOf(lpn, f.ePerTP)
		p.vals[off] = flash.InvalidPPN
		p.dirty.Remove(off)
	}
}

// DirtyPages implements ftl.Translator: a flush writes every ZFTL page by
// read-modify-write, a cached tier-2 page too, so no page is whole.
func (f *FTL) DirtyPages(set []uint64, whole bool) {
	if whole {
		return
	}
	for _, e := range f.tier1 {
		v := ftl.VTPNOf(e.LPN, f.ePerTP)
		set[v>>6] |= 1 << (v & 63)
	}
	for i, p := range f.tier2 {
		if p != nil && p.dirty.Len() > 0 {
			v := f.zone*f.cfg.ZoneTPs + i
			set[v>>6] |= 1 << (v & 63)
		}
	}
}

// TakeDirty implements ftl.Translator: the dirty slots of page v's tier-2
// copy, else its tier-1 entries, in ascending offset order. The two are
// disjoint: loading a page into tier 2 folds in its tier-1 entries, and an
// update of a cached page lands in the page.
func (f *FTL) TakeDirty(v ftl.VTPN, ups []ftl.EntryUpdate) []ftl.EntryUpdate {
	if p := f.page(v); p != nil {
		return p.dirty.Take(p.vals, ups)
	}
	lo, hi := f.run(v)
	for _, e := range f.tier1[lo:hi] {
		ups = append(ups, ftl.EntryUpdate{Off: ftl.OffOf(e.LPN, f.ePerTP), PPN: e.PPN})
	}
	f.tier1 = slices.Delete(f.tier1, lo, hi)
	return ups
}

// RefreshGC implements ftl.Translator: the entry is refreshed in its cached
// tier-2 page, else in the tier-1 dirty area.
func (f *FTL) RefreshGC(lpn ftl.LPN, ppn flash.PPN) bool {
	if p := f.page(ftl.VTPNOf(lpn, f.ePerTP)); p != nil {
		off := ftl.OffOf(lpn, f.ePerTP)
		p.vals[off] = ppn
		p.dirty.Add(off)
		return true
	}
	if i, ok := f.find(lpn); ok {
		f.tier1[i].PPN = ppn
		return true
	}
	return false
}

// DirtyCached returns the dirty entries in ascending LPN order for
// Device.CheckConsistency: tier 1 merged with the tier-2 pages' dirty
// slots, which never share a page.
func (f *FTL) DirtyCached() []ftl.DirtyEntry {
	out := []ftl.DirtyEntry{}
	rest := f.tier1
	for i, p := range f.tier2 {
		if p == nil {
			continue
		}
		first := ftl.LPNAt(ftl.VTPN(f.zone*f.cfg.ZoneTPs+i), 0, f.ePerTP)
		n, _ := slices.BinarySearchFunc(rest, first, byLPN)
		out, rest = append(out, rest[:n]...), rest[n:]
		for off := p.dirty.Next(0); off >= 0; off = p.dirty.Next(off + 1) {
			out = append(out, ftl.DirtyEntry{LPN: first + ftl.LPN(off), PPN: p.vals[off]})
		}
	}
	return append(out, rest...)
}
