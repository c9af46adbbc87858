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
	dirty map[int32]struct{}
}

// FTL is the ZFTL translator. Create with New.
type FTL struct {
	cfg      Config
	tier2Cap int

	zone  int // active zone, -1 initially
	tier2 map[ftl.VTPN]*tier2Page
	order []ftl.VTPN // FIFO of loaded pages for tier-2 eviction
	tier1 map[ftl.LPN]flash.PPN

	switches int64
	ePerTP   int
}

var _ ftl.Translator = (*FTL)(nil)

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
		tier2:    make(map[ftl.VTPN]*tier2Page),
		tier1:    make(map[ftl.LPN]flash.PPN),
		ePerTP:   ftl.DefaultEntriesPerTP,
	})
}

// Name implements ftl.Translator.
func (f *FTL) Name() string { return "ZFTL" }

// BeginRequest implements ftl.Translator.
func (f *FTL) BeginRequest(first, last ftl.LPN, write bool) {}

// ZoneSwitches returns the number of zone switches performed.
func (f *FTL) ZoneSwitches() int64 { return f.switches }

// ActiveZone returns the current zone (-1 before the first access).
func (f *FTL) ActiveZone() int { return f.zone }

func (f *FTL) zoneOf(v ftl.VTPN) int { return int(v) / f.cfg.ZoneTPs }

// Translate implements ftl.Translator.
func (f *FTL) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	f.ePerTP = env.EntriesPerTP()
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))

	// Tier 1 holds the freshest values regardless of zone.
	if ppn, ok := f.tier1[lpn]; ok {
		env.NoteLookup(true)
		return ppn, nil
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
	if p, ok := f.tier2[v]; ok {
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

// switchZone flushes the old zone's dirty state and activates the new zone.
// The caches are dropped BEFORE the flash writes: a GC triggered by a flush
// must see an empty cache (and update persisted state directly), not park
// fresh values in structures about to be discarded.
func (f *FTL) switchZone(env ftl.Env, zone int) error {
	pending := map[ftl.VTPN][]ftl.EntryUpdate{}
	for lpn, ppn := range f.tier1 {
		v := ftl.VTPNOf(lpn, f.ePerTP)
		pending[v] = append(pending[v], ftl.EntryUpdate{Off: ftl.OffOf(lpn, f.ePerTP), PPN: ppn})
	}
	for v, p := range f.tier2 {
		// Collect per page and sort by offset so the tier-2 portion of a
		// page's updates does not carry map iteration order. Tier-1
		// entries stay ahead of tier-2 ones: on an offset collision the
		// cached page is the fresher copy and must apply last.
		ups := make([]ftl.EntryUpdate, 0, len(p.dirty))
		for off := range p.dirty {
			ups = append(ups, ftl.EntryUpdate{Off: int(off), PPN: p.vals[off]})
		}
		ftl.SortUpdates(ups)
		pending[v] = append(pending[v], ups...)
	}
	f.tier1 = make(map[ftl.LPN]flash.PPN)
	f.tier2 = make(map[ftl.VTPN]*tier2Page)
	f.order = f.order[:0]
	f.zone = zone
	f.switches++
	for _, v := range ftl.SortedVTPNs(pending) {
		ups := pending[v]
		env.NoteBatchWriteback(len(ups) - 1)
		if err := env.WriteTP(v, ups, false); err != nil {
			return err
		}
	}
	return nil
}

// loadTier2 reads translation page v (must be in the active zone) into the
// second tier, evicting FIFO.
func (f *FTL) loadTier2(env ftl.Env, v ftl.VTPN) (*tier2Page, error) {
	for len(f.tier2) >= f.tier2Cap {
		victim := f.order[0]
		f.order = f.order[1:]
		p := f.tier2[victim]
		if p == nil {
			continue
		}
		env.NoteReplacement(len(p.dirty) > 0)
		// Unlink before the writeback so a GC triggered by the flush
		// updates persisted state directly instead of this dropped page.
		delete(f.tier2, victim)
		if len(p.dirty) > 0 {
			ups := make([]ftl.EntryUpdate, 0, len(p.dirty))
			for off := range p.dirty {
				ups = append(ups, ftl.EntryUpdate{Off: int(off), PPN: p.vals[off]})
			}
			ftl.SortUpdates(ups)
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
	p := &tier2Page{vals: make([]flash.PPN, len(vals)), dirty: make(map[int32]struct{})}
	copy(p.vals, vals)
	// Fold in any tier-1 entries for this page (they are newer).
	base := ftl.LPNAt(v, 0, f.ePerTP)
	for off := 0; off < f.ePerTP; off++ {
		if ppn, ok := f.tier1[base+ftl.LPN(off)]; ok {
			p.vals[off] = ppn
			p.dirty[int32(off)] = struct{}{}
			delete(f.tier1, base+ftl.LPN(off))
		}
	}
	f.tier2[v] = p
	f.order = append(f.order, v)
	return p, nil
}

// Update implements ftl.Translator: new mappings land in the page if cached
// or the tier-1 dirty area, which evicts in batches when full.
func (f *FTL) Update(env ftl.Env, lpn ftl.LPN, ppn flash.PPN) error {
	f.ePerTP = env.EntriesPerTP()
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))
	if p, ok := f.tier2[v]; ok {
		p.vals[off] = ppn
		p.dirty[off] = struct{}{}
		return nil
	}
	f.tier1[lpn] = ppn
	if len(f.tier1) > f.cfg.Tier1Entries {
		return f.evictTier1Batch(env)
	}
	return nil
}

// evictTier1Batch flushes the translation page with the most tier-1 entries
// (ZFTL's batch eviction).
func (f *FTL) evictTier1Batch(env ftl.Env) error {
	groups := map[ftl.VTPN][]ftl.LPN{}
	for lpn := range f.tier1 {
		v := ftl.VTPNOf(lpn, f.ePerTP)
		groups[v] = append(groups[v], lpn)
	}
	var bestV ftl.VTPN
	best := -1
	// Size ties break toward the smallest vtpn: left to map iteration
	// order, which page evicts on a tie would differ between identical
	// runs.
	//ftl:orderinsensitive argmax with deterministic tie-break toward the smallest vtpn
	for v, lpns := range groups {
		if len(lpns) > best || (len(lpns) == best && v < bestV) {
			best, bestV = len(lpns), v
		}
	}
	if best < 0 {
		return nil
	}
	ups := make([]ftl.EntryUpdate, 0, best)
	for _, lpn := range groups[bestV] {
		ups = append(ups, ftl.EntryUpdate{Off: ftl.OffOf(lpn, f.ePerTP), PPN: f.tier1[lpn]})
		delete(f.tier1, lpn)
		env.NoteReplacement(true)
	}
	ftl.SortUpdates(ups)
	env.NoteBatchWriteback(len(ups) - 1)
	return env.WriteTP(bestV, ups, false)
}

// Discard implements ftl.Translator: drop the trimmed page's tier-1 entry
// and clear its tier-2 slot in RAM (InvalidPPN, dirty mark removed) so no
// later flush writes the dead mapping back; the device rewrites the
// translation page itself as part of the discard.
func (f *FTL) Discard(lpn ftl.LPN) {
	delete(f.tier1, lpn)
	v := ftl.VTPNOf(lpn, f.ePerTP)
	if p, ok := f.tier2[v]; ok {
		off := int32(ftl.OffOf(lpn, f.ePerTP))
		p.vals[off] = flash.InvalidPPN
		delete(p.dirty, off)
	}
}

// FlushDirty implements ftl.Translator: a host flush barrier writes every
// dirty entry of both tiers back, batched per translation page in ascending
// VTPN order, without dropping the caches (unlike a zone switch). Each
// page's updates are captured immediately before its own WriteTP (which
// applies them before any GC it triggers), so a GC run mid-flush always
// sees — and can refresh — the entries still awaiting their turn.
func (f *FTL) FlushDirty(env ftl.Env) error {
	f.ePerTP = env.EntriesPerTP()
	dirtyVTPNs := map[ftl.VTPN]struct{}{}
	for lpn := range f.tier1 {
		dirtyVTPNs[ftl.VTPNOf(lpn, f.ePerTP)] = struct{}{}
	}
	for v, p := range f.tier2 {
		if len(p.dirty) > 0 {
			dirtyVTPNs[v] = struct{}{}
		}
	}
	for _, v := range ftl.SortedVTPNs(dirtyVTPNs) {
		var ups []ftl.EntryUpdate
		base := ftl.LPNAt(v, 0, f.ePerTP)
		for off := 0; off < f.ePerTP; off++ {
			if ppn, ok := f.tier1[base+ftl.LPN(off)]; ok {
				ups = append(ups, ftl.EntryUpdate{Off: off, PPN: ppn})
				delete(f.tier1, base+ftl.LPN(off))
			}
		}
		if p, ok := f.tier2[v]; ok {
			for off := range p.dirty {
				ups = append(ups, ftl.EntryUpdate{Off: int(off), PPN: p.vals[off]})
			}
			p.dirty = make(map[int32]struct{})
		}
		if len(ups) == 0 {
			continue
		}
		ftl.SortUpdates(ups)
		env.NoteBatchWriteback(len(ups) - 1)
		if err := env.WriteTP(v, ups, false); err != nil {
			return err
		}
	}
	return nil
}

// RefreshGC implements ftl.Translator: the entry is refreshed in its cached
// tier-2 page, else in the tier-1 dirty area.
func (f *FTL) RefreshGC(lpn ftl.LPN, ppn flash.PPN) bool {
	if p, ok := f.tier2[ftl.VTPNOf(lpn, f.ePerTP)]; ok {
		off := int32(ftl.OffOf(lpn, f.ePerTP))
		p.vals[off] = ppn
		p.dirty[off] = struct{}{}
		return true
	}
	if _, ok := f.tier1[lpn]; ok {
		f.tier1[lpn] = ppn
		return true
	}
	return false
}

// DirtyCached returns dirty entries for Device.CheckConsistency.
func (f *FTL) DirtyCached() map[ftl.LPN]flash.PPN {
	out := make(map[ftl.LPN]flash.PPN)
	for lpn, ppn := range f.tier1 {
		out[lpn] = ppn
	}
	for v, p := range f.tier2 {
		for off := range p.dirty {
			out[ftl.LPNAt(v, int(off), f.ePerTP)] = p.vals[off]
		}
	}
	return out
}
