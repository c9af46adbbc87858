// Package core implements TPFTL, the translation page-level FTL that is the
// primary contribution of the paper (§4).
//
// TPFTL organizes the mapping cache as two-level LRU lists: a page-level LRU
// of TP nodes — one per translation page with at least one cached entry —
// each holding an entry-level LRU list of its cached entries. Entries are
// stored compressed (offset within the translation page instead of a full
// LPN: 6 B instead of 8 B), so the same budget caches up to a third more
// entries (§4.1, Fig. 10).
//
// On top of this structure TPFTL layers four techniques, all independently
// switchable to reproduce the paper's §5.2(5) ablation:
//
//   - request-level prefetching (Config.RequestPrefetch, 'r'): a miss on the
//     first page of a multi-page request loads every entry the request needs
//     from one translation-page read (§4.3);
//   - selective prefetching (Config.SelectivePrefetch, 's'): a counter of
//     TP-node count changes detects sequential phases; during one, a miss
//     also loads as many successors as the requested entry has cached
//     consecutive predecessors (§4.3);
//   - batch-update replacement (Config.BatchUpdate, 'b'): evicting a dirty
//     entry writes back all dirty entries of its TP node in the same
//     translation-page update; the survivors stay cached, now clean (§4.4);
//   - clean-first replacement (Config.CleanFirst, 'c'): the victim is the
//     LRU clean entry of the coldest TP node, falling back to the LRU dirty
//     entry (§4.4).
//
// Prefetching and replacement are integrated by the two §4.5 rules: a
// prefetch never crosses its translation-page boundary, and when the load
// forces evictions, the prefetch length is capped at the entry count of the
// coldest TP node so replacement stays confined to one cached page.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/cacheline"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/lru"
)

// Hotness selects the page-level ordering policy.
type Hotness int

const (
	// HotnessLRU moves a TP node to the MRU position whenever one of its
	// entries is touched — the conventional approximation.
	HotnessLRU Hotness = iota
	// HotnessAvg orders TP nodes by the exact average access timestamp of
	// their entries, the paper's §4.2 definition ("page-level hotness is
	// the average hotness of all the entry nodes").
	HotnessAvg
)

// Config parameterizes TPFTL. The zero value (all techniques off) is the
// paper's "–" ablation variant: bare two-level lists.
type Config struct {
	// CacheBytes is the mapping-cache budget.
	CacheBytes int64

	// RequestPrefetch enables request-level prefetching ('r').
	RequestPrefetch bool
	// SelectivePrefetch enables selective prefetching ('s').
	SelectivePrefetch bool
	// BatchUpdate enables batch-update replacement ('b').
	BatchUpdate bool
	// CleanFirst enables clean-first replacement ('c').
	CleanFirst bool

	// CompressEntries stores entries as offset+PPN (6 B) instead of
	// LPN+PPN (8 B). Default true (set by DefaultConfig); the Fig. 10
	// space-utilization experiment turns it off for comparison.
	CompressEntries bool

	// SelectiveThreshold is the TP-node-count change that toggles
	// selective prefetching (default 3, the paper's empirical choice).
	SelectiveThreshold int

	// TPNodeBytes is the RAM overhead charged per TP node (default 8:
	// a VTPN plus list bookkeeping).
	TPNodeBytes int

	// Hotness selects the page-level ordering policy (default HotnessLRU).
	Hotness Hotness

	// EntriesPerTP is the number of mapping entries per on-flash
	// translation page (device PageSize / ftl.EntryBytesInFlash). Zero
	// selects the 4 KB-page default; ftl.NewDevice overrides either with
	// the real device geometry via SetGeometry.
	EntriesPerTP int
}

// DefaultConfig returns the complete TPFTL ("rsbc") for the given budget.
func DefaultConfig(cacheBytes int64) Config {
	return Config{
		CacheBytes:        cacheBytes,
		RequestPrefetch:   true,
		SelectivePrefetch: true,
		BatchUpdate:       true,
		CleanFirst:        true,
		CompressEntries:   true,
	}
}

// VariantName returns the paper's ablation monogram for the configuration:
// "–" for the bare variant, subsets of "rsbc" otherwise.
func (c Config) VariantName() string {
	s := ""
	if c.RequestPrefetch {
		s += "r"
	}
	if c.SelectivePrefetch {
		s += "s"
	}
	if c.BatchUpdate {
		s += "b"
	}
	if c.CleanFirst {
		s += "c"
	}
	if s == "" {
		return "–"
	}
	return s
}

// entryNode is one cached mapping entry (§4.1's entry node). Nodes live in
// the entry slab (entrySlab) and are recycled through a free list on
// eviction; outside a list they carry the reset sentinel state (owner nil,
// off -1, ppn invalid) so stale bits cannot leak into a reuse.
type entryNode struct {
	node  lru.Node[*entryNode] // links within its TP node's entry-level list
	owner *tpNode
	off   int32 // offset within the translation page (the compressed LPN)
	ppn   flash.PPN
	idx   int32 // the node's position in the slab; set once
	dirty bool
	stamp uint64 // last-access timestamp (HotnessAvg ordering)
}

// tpNode clusters the cached entries of one translation page (§4.1). Like
// entry nodes, TP nodes are slab-allocated and recycled. byOff is a dense
// offset-indexed table (len == entries-per-TP): offsets are bounded by the
// translation-page geometry, so a direct index replaces the per-node map — no
// hashing on the hit path and no map allocation per node. A slot holds the
// entry's slab position plus one, 0 for uncached: every entry lives in the
// one slab, so 4 bytes name it where a pointer took 8 (the §4.1 move — store
// the offset, not the LPN — applied to the cache's own index). dirtyBits lets
// the batch writebacks find the dirty entries in O(ePerTP/64 + dirty).
type tpNode struct {
	node      lru.Node[*tpNode] // links within the page-level list
	vtpn      ftl.VTPN
	entries   lru.List[*entryNode] // entry-level LRU, MRU..LRU
	byOff     []int32              // dense offset→slab position+1 table, kept (all zero) across recycles
	dirtyBits []uint64             // offset bitmap of the dirty entries, kept (all zero) across recycles
	dirty     int                  // dirty entry count: the bitmap's population
	stampSum  uint64               // Σ entry stamps; avg = stampSum/len (HotnessAvg)
}

// markDirty makes e, an entry of tp, dirty.
func (tp *tpNode) markDirty(e *entryNode) {
	if !e.dirty {
		e.dirty = true
		tp.dirty++
		tp.dirtyBits[e.off>>6] |= 1 << (e.off & 63)
	}
}

// markClean makes e, an entry of tp, clean.
func (tp *tpNode) markClean(e *entryNode) {
	if e.dirty {
		e.dirty = false
		tp.dirty--
		tp.dirtyBits[e.off>>6] &^= 1 << (e.off & 63)
	}
}

// appendDirty appends every dirty entry of tp except keep, in ascending
// offset order, to ups and marks it clean; keep (nil for none) is appended
// but stays dirty. It returns the extended batch and how many it cleaned.
func (f *FTL) appendDirty(tp *tpNode, keep *entryNode, ups []ftl.EntryUpdate) ([]ftl.EntryUpdate, int) {
	cleaned := 0
	for w, word := range tp.dirtyBits {
		for ; word != 0; word &= word - 1 {
			e := f.entryAt(tp, int32(w<<6+bits.TrailingZeros64(word)))
			ups = append(ups, ftl.EntryUpdate{Off: int(e.off), PPN: e.ppn})
			if e != keep {
				tp.markClean(e)
				cleaned++
			}
		}
	}
	return ups, cleaned
}

func (tp *tpNode) avgStamp() float64 {
	if tp.entries.Len() == 0 {
		return 0
	}
	return float64(tp.stampSum) / float64(tp.entries.Len())
}

// FTL is the TPFTL translator. Create with New.
type FTL struct {
	cfg        Config
	entryBytes int64
	nodeBytes  int64
	threshold  int

	pages lru.List[*tpNode] // page-level list, hottest..coldest
	// byVTPN is the page directory: a dense table indexed by VTPN
	// (nil = not cached), grown on demand as translation pages are first
	// installed. A map here put a hash lookup on every Translate; the VTPN
	// space is small (logical pages / entries-per-TP), so the flat table
	// costs a few KB and indexes in one bounds-checked load.
	byVTPN []*tpNode

	// Slab free lists: evicted nodes are reset and recycled instead of
	// handed back to the garbage collector, so the steady-state service
	// path allocates nothing.
	eslab entrySlab
	tslab tpSlab

	// Reusable scratch buffers for the hot paths that previously allocated
	// per call. prefetchBuf backs prefetchSet's result; evictScratch backs
	// evictRun's writeback batch and flushScratch FlushDirty's. Each batch
	// stays live across its WriteTP, which can trigger GC, whose map updates
	// build their batches in the device's own scratch.
	prefetchBuf  []int32
	evictScratch []ftl.EntryUpdate
	flushScratch []ftl.EntryUpdate

	used    int64 // bytes charged against cfg.CacheBytes
	entries int

	// Selective-prefetching state (§4.3): counter of TP-node count
	// changes; selective prefetching toggles when |counter| reaches the
	// threshold.
	counter     int
	selectiveOn bool

	stamp uint64 // global access clock for HotnessAvg

	// Request context from BeginRequest.
	reqFirst, reqLast ftl.LPN

	// §4.5 rule-2 bookkeeping: while a prefetch-carrying load is evicting,
	// every victim must come from one TP node. loadPrefetchPending is set
	// around evictRun calls made with a non-empty prefetch; loadVictim is
	// that load's first victim node. A second distinct victim node records
	// a sticky violation surfaced by CheckInvariants.
	loadPrefetchPending bool
	loadVictim          ftl.VTPN
	rule2Err            error

	ePerTP int
}

var _ ftl.Translator = (*FTL)(nil)
var _ ftl.Inspector = (*FTL)(nil)
var _ ftl.GeometryAware = (*FTL)(nil)
var _ ftl.DirtyAppender = (*FTL)(nil)

// New returns a TPFTL instance.
func New(cfg Config) *FTL {
	if cfg.SelectiveThreshold == 0 {
		cfg.SelectiveThreshold = 3
	}
	if cfg.TPNodeBytes == 0 {
		cfg.TPNodeBytes = 8
	}
	entryBytes := int64(ftl.EntryBytesRAM) // 8 B uncompressed
	if cfg.CompressEntries {
		entryBytes = 6 // 10-bit offset + 4 B PPN + flags, rounded up (§4.1)
	}
	if min := entryBytes*4 + int64(cfg.TPNodeBytes); cfg.CacheBytes < min {
		cfg.CacheBytes = min
	}
	ePerTP := cfg.EntriesPerTP
	if ePerTP <= 0 {
		ePerTP = ftl.DefaultEntriesPerTP
	}
	return cacheline.Isolated(FTL{
		cfg:        cfg,
		entryBytes: entryBytes,
		nodeBytes:  int64(cfg.TPNodeBytes),
		threshold:  cfg.SelectiveThreshold,
		ePerTP:     ePerTP,
	})
}

// SetGeometry implements ftl.GeometryAware: the device announces its real
// entries-per-translation-page count at construction, so offset/VTPN
// arithmetic (DirtyCached, Snapshot) is correct even before the first
// Translate syncs from the Env — previously a non-4KB PageSize left the
// hardcoded 4 KB default in place until then.
func (f *FTL) SetGeometry(entriesPerTP int) {
	if entriesPerTP > 0 {
		f.ePerTP = entriesPerTP
	}
}

// EntriesPerTP returns the translation-page geometry the cache is using.
func (f *FTL) EntriesPerTP() int { return f.ePerTP }

// Name implements ftl.Translator.
func (f *FTL) Name() string { return "TPFTL" }

// Variant returns the ablation monogram of this instance.
func (f *FTL) Variant() string { return f.cfg.VariantName() }

// Len returns the number of cached entries.
func (f *FTL) Len() int { return f.entries }

// TPNodes returns the number of cached TP nodes.
func (f *FTL) TPNodes() int { return f.pages.Len() }

// UsedBytes returns the charged cache usage.
func (f *FTL) UsedBytes() int64 { return f.used }

// SelectiveActive reports whether selective prefetching is currently on.
func (f *FTL) SelectiveActive() bool { return f.selectiveOn }

// BeginRequest implements ftl.Translator.
func (f *FTL) BeginRequest(first, last ftl.LPN, write bool) {
	f.reqFirst, f.reqLast = first, last
}

// Translate implements ftl.Translator.
func (f *FTL) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	f.ePerTP = env.EntriesPerTP()
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))

	if tp := f.tpAt(v); tp != nil {
		if e := f.entryAt(tp, off); e != nil {
			env.NoteLookup(true)
			f.touch(tp, e)
			return e.ppn, nil
		}
	}
	env.NoteLookup(false)
	return f.load(env, lpn, v, off)
}

// load handles a cache miss: it decides the prefetch set, makes room, reads
// the translation page once and installs the entries.
func (f *FTL) load(env ftl.Env, lpn ftl.LPN, v ftl.VTPN, off int32) (flash.PPN, error) {
	f.reserveEntries(env)
	tp := f.tpAt(v)

	// Prefetch decision (§4.3). Offsets are relative to lpn's translation
	// page and exclude already-cached slots; rule 1 (§4.5) bounds
	// everything to this page, and the device's logical size truncates
	// the last (partial) translation page.
	pageEnd := int32(f.ePerTP)
	if lim := env.NumLPNs() - int64(v)*int64(f.ePerTP); lim < int64(pageEnd) {
		pageEnd = int32(lim)
	}
	extras := f.prefetchSet(tp, lpn, off, pageEnd)

	// Make room before reading the translation page: evictions can write
	// back dirty entries and trigger GC, which may move the very data
	// pages being looked up. Reading only after all evictions guarantees
	// fresh values (ReadTP cannot trigger GC).
	//
	// Rule 2 (§4.5): if loading forces evictions, shrink the prefetch
	// until the whole load fits into the current free space plus what
	// evicting the coldest TP node entirely can yield, confining
	// replacement to one cached page. The cap is recomputed before every
	// eviction run: a run can exhaust its victim node and surface a
	// differently-sized coldest node (notably when the demanded entry's
	// own node was the victim, whose drop raises the load's cost by
	// nodeBytes), and a one-shot computation would let replacement quietly
	// spill into a second page. When continuing would require a second
	// victim node, the prefetch is dropped instead. Within one run the cap
	// cannot change: each victim moves entryBytes from freeable to free.
	f.loadVictim = -1
	defer func() { f.loadPrefetchPending = false }()
	victimNode := ftl.VTPN(-1)
	for {
		// base is the demanded entry, plus its TP node while that is not
		// cached (an eviction run may have dropped it).
		base := f.entryBytes
		if f.tpAt(v) == nil {
			base += f.nodeBytes
		}
		floor := f.cfg.CacheBytes - base - int64(len(extras))*f.entryBytes
		if f.used <= floor {
			break
		}
		if len(extras) > 0 {
			cold := ftl.VTPN(-1)
			freeable := int64(0)
			if coldest := f.pages.Back(); coldest != nil {
				tpc := coldest.Value
				cold = tpc.vtpn
				freeable = int64(tpc.entries.Len())*f.entryBytes + f.nodeBytes
			}
			if victimNode >= 0 && cold != victimNode {
				extras = extras[:0]
			} else {
				room := f.cfg.CacheBytes - f.used + freeable - base
				if n := max(room/f.entryBytes, 0); n < int64(len(extras)) {
					extras = extras[:n]
				}
				if len(extras) > 0 {
					victimNode = cold
				}
			}
			floor = f.cfg.CacheBytes - base - int64(len(extras))*f.entryBytes
			if f.used <= floor {
				break // the shrink alone made the load fit
			}
		}
		f.loadPrefetchPending = len(extras) > 0
		evicted, err := f.evictRun(env, floor)
		if err != nil {
			return flash.InvalidPPN, err
		}
		if !evicted {
			// Cache empty yet still no room: shrink the prefetch.
			if len(extras) > 0 {
				extras = extras[:0]
				continue
			}
			return flash.InvalidPPN, fmt.Errorf("tpftl: budget %d cannot hold one entry", f.cfg.CacheBytes)
		}
	}
	f.loadPrefetchPending = false

	vals, err := env.ReadTP(v)
	if err != nil {
		return flash.InvalidPPN, err
	}

	// The eviction pass may have removed lpn's TP node (or created the
	// conditions for it); re-resolve and install.
	tp = f.tpAt(v)
	if tp == nil {
		tp = f.newTPNode(v)
	}
	// Install prefetched entries first, the demanded entry last, so the
	// demanded one ends up MRU; its touch repositions tp for the whole run.
	loaded := 0
	for _, xo := range extras {
		if tp.byOff[xo] != 0 {
			continue // installed by a nested path meanwhile
		}
		f.addEntry(tp, xo, vals[xo], false)
		loaded++
	}
	if loaded > 0 {
		if np, ok := env.(interface{ NotePrefetch(int) }); ok {
			np.NotePrefetch(loaded)
		}
	}
	ppn := vals[off]
	if e := f.entryAt(tp, off); e != nil {
		// Extremely defensive: demanded entry appeared during eviction.
		f.touch(tp, e)
		return e.ppn, nil
	}
	e := f.addEntry(tp, off, ppn, false)
	f.touch(tp, e)
	return ppn, nil
}

// prefetchSet returns the extra offsets (same translation page, uncached,
// ascending, excluding off) to load together with the demanded entry. The
// result aliases f.prefetchBuf; it is valid until the next miss.
func (f *FTL) prefetchSet(tp *tpNode, lpn ftl.LPN, off, pageEnd int32) []int32 {
	extras := f.prefetchBuf[:0]

	// Request-level prefetching ('r'): all pages of the in-flight request
	// from lpn forward, within this translation page (rule 1).
	reqN := int32(0)
	if f.cfg.RequestPrefetch && f.reqLast > lpn {
		reqN = int32(f.reqLast - lpn)
		for i := int32(1); i <= reqN && off+i < pageEnd; i++ {
			xo := off + i
			if tp != nil && tp.byOff[xo] != 0 {
				continue
			}
			extras = append(extras, xo)
		}
	}

	// Selective prefetching ('s'): when active, prefetch as many
	// successors as there are cached consecutive predecessors (§4.3).
	// Offsets within reqN were already considered by the request pass
	// above (both passes skip cached slots), so skipping them here keeps
	// the set duplicate-free without a per-miss seen map.
	if f.cfg.SelectivePrefetch && f.selectiveOn && tp != nil {
		preds := int32(0)
		for o := off - 1; o >= 0; o-- {
			if tp.byOff[o] == 0 {
				break
			}
			preds++
		}
		for i := int32(1); i <= preds && off+i < pageEnd; i++ {
			if i <= reqN {
				continue // covered by the request-prefetch pass
			}
			xo := off + i
			if tp.byOff[xo] != 0 {
				continue
			}
			extras = append(extras, xo)
		}
	}
	f.prefetchBuf = extras
	return extras
}

// touch records an access to e and restores the page-level ordering.
func (f *FTL) touch(tp *tpNode, e *entryNode) {
	tp.entries.MoveToFront(&e.node)
	f.stamp++
	tp.stampSum += f.stamp - e.stamp
	e.stamp = f.stamp
	f.reposition(tp)
}

// reposition restores tp's position in the page-level list after its
// hotness changed.
func (f *FTL) reposition(tp *tpNode) {
	if f.cfg.Hotness == HotnessLRU {
		f.pages.MoveToFront(&tp.node)
		return
	}
	// HotnessAvg: bubble toward the front while hotter than predecessors,
	// toward the back while colder than successors.
	avg := tp.avgStamp()
	for prev := tp.node.Prev(); prev != nil && prev.Value.avgStamp() < avg; prev = tp.node.Prev() {
		f.pages.Remove(&tp.node)
		f.pages.InsertBefore(&tp.node, prev)
	}
	for next := tp.node.Next(); next != nil && next.Value.avgStamp() > avg; next = tp.node.Next() {
		f.pages.Remove(&tp.node)
		f.pages.InsertAfter(&tp.node, next)
	}
}

// tpAt returns the cached TP node for v, or nil. The directory only grows
// when a node is installed (newTPNode), so a VTPN beyond the table is simply
// not cached.
func (f *FTL) tpAt(v ftl.VTPN) *tpNode {
	if int(v) < len(f.byVTPN) {
		return f.byVTPN[v]
	}
	return nil
}

// entryAt returns tp's cached entry at off, or nil: one load from the offset
// table and the node's address from its position — no hash, no probe.
func (f *FTL) entryAt(tp *tpNode, off int32) *entryNode {
	if slot := tp.byOff[off]; slot != 0 {
		return &f.eslab.nodes[slot-1]
	}
	return nil
}

// reserveEntries allocates the entry slab on the first miss, once and for
// good: the cache never holds more entries than its budget pays for, nor more
// than the device has logical pages. The free list gets the same capacity —
// every position can be free at once — so that neither grows mid-replay.
func (f *FTL) reserveEntries(env ftl.Env) {
	if f.eslab.nodes == nil {
		slots := min(f.cfg.CacheBytes/f.entryBytes, env.NumLPNs())
		f.eslab.nodes = make([]entryNode, 0, slots)
		f.eslab.free = make([]int32, 0, slots)
	}
}

// growIndex widens the page directory to hold at least n slots. Growth
// doubles, so steady-state installs never reallocate; the table tops out at
// one pointer per translation page of the device.
func (f *FTL) growIndex(n int) {
	if n < 2*len(f.byVTPN) {
		n = 2 * len(f.byVTPN)
	}
	nb := make([]*tpNode, n)
	copy(nb, f.byVTPN)
	f.byVTPN = nb
}

// newTPNode creates and links a TP node, charging its overhead and stepping
// the selective-prefetch counter (§4.3: +1 on load).
func (f *FTL) newTPNode(v ftl.VTPN) *tpNode {
	tp := f.tslab.get(f.ePerTP)
	tp.vtpn = v
	if int(v) >= len(f.byVTPN) {
		f.growIndex(int(v) + 1)
	}
	f.byVTPN[v] = tp
	f.pages.PushFront(&tp.node)
	f.used += f.nodeBytes
	f.stepCounter(+1)
	return tp
}

// dropTPNode unlinks an empty TP node (§4.3: −1 on eviction).
func (f *FTL) dropTPNode(tp *tpNode) {
	f.pages.Remove(&tp.node)
	f.byVTPN[tp.vtpn] = nil
	f.used -= f.nodeBytes
	f.stepCounter(-1)
	f.tslab.put(tp)
}

// stepCounter implements the selective-prefetching activation rule: when
// the counter reaches +threshold, sequential accesses ended — deactivate;
// at −threshold they are happening — activate; either way reset (§4.3).
func (f *FTL) stepCounter(delta int) {
	f.counter += delta
	switch {
	case f.counter >= f.threshold:
		f.selectiveOn = false
		f.counter = 0
	case f.counter <= -f.threshold:
		f.selectiveOn = true
		f.counter = 0
	}
}

// addEntry installs a new entry at the MRU position of tp. It leaves tp
// where it is in the page-level list: every install ends with a touch of the
// demanded entry, and that one reposition puts tp where a reposition per
// installed entry would have. Under HotnessLRU each of them is a move to the
// front. Under HotnessAvg each new stamp is above every stamp in the cache, so
// tp's average only rises along a run of installs, and bubbling tp forward
// past the colder nodes in stages ends where one bubble with the final
// average ends (exactly so while stampSum stays below 2⁵³, the float64
// mantissa).
func (f *FTL) addEntry(tp *tpNode, off int32, ppn flash.PPN, dirty bool) *entryNode {
	e := f.eslab.get()
	e.owner, e.off, e.ppn = tp, off, ppn
	tp.byOff[off] = e.idx + 1
	tp.entries.PushFront(&e.node)
	if dirty {
		tp.markDirty(e)
	}
	f.stamp++
	e.stamp = f.stamp
	tp.stampSum += f.stamp
	f.entries++
	f.used += f.entryBytes
	return e
}

// removeEntry unlinks e and recycles it; the TP node is dropped when it
// empties.
func (f *FTL) removeEntry(e *entryNode) {
	tp := e.owner
	tp.entries.Remove(&e.node)
	tp.byOff[e.off] = 0
	tp.stampSum -= e.stamp
	tp.markClean(e)
	f.eslab.put(e)
	f.entries--
	f.used -= f.entryBytes
	if tp.entries.Len() == 0 {
		f.dropTPNode(tp)
		return
	}
	// Removing an entry changes the node's average hotness; restore the
	// ordering without treating the removal as an access (under LRU
	// ordering an eviction must not promote the node).
	if f.cfg.Hotness == HotnessAvg {
		f.reposition(tp)
	}
}

// evictRun evicts the replacement policy's victim (§4.4), then keeps
// evicting further victims of the same TP node while the cache is above floor,
// the node is still the coldest page, and the next victim is clean. It
// reports whether anything was evicted.
//
// The run picks exactly the victims that one eviction at a time would, in the
// same order: with clean-first the next victim is the next clean entry toward
// the MRU end (every entry behind the last victim is dirty, and no entry turns
// clean or joins the node without a writeback or an install), without it the
// LRU entry. The run ends where the choice would leave the node or need a
// writeback: a dirty victim, which is written back last, the node dropped
// once it empties, or, under HotnessAvg, the node no longer coldest after a
// removal repositioned it.
func (f *FTL) evictRun(env ftl.Env, floor int64) (bool, error) {
	coldN := f.pages.Back()
	if coldN == nil {
		return false, nil
	}
	tp := coldN.Value

	// §4.5 rule-2 assertion: a load that still carries a prefetch must
	// confine its evictions to one TP node. A run never leaves its node.
	if f.loadPrefetchPending {
		if f.loadVictim < 0 {
			f.loadVictim = tp.vtpn
		} else if tp.vtpn != f.loadVictim && f.rule2Err == nil {
			f.rule2Err = fmt.Errorf("tpftl: §4.5 rule 2 violated: one prefetching load evicted from tp nodes %d and %d", f.loadVictim, tp.vtpn)
		}
	}

	var victim *entryNode
	for n := tp.entries.Back(); ; {
		if f.cfg.CleanFirst {
			// LRU clean entry of the coldest TP node; LRU dirty as
			// fallback. Every entry behind n is dirty.
			if n = prevClean(n); n == nil {
				n = tp.entries.Back()
			}
		}
		victim = n.Value
		env.NoteReplacement(victim.dirty)
		if victim.dirty {
			break
		}
		next := n.Prev() // read before removeEntry unlinks n
		f.removeEntry(victim)
		if f.used <= floor || f.pages.Back() != &tp.node {
			return true, nil
		}
		if f.cfg.CleanFirst {
			n = next
		} else {
			n = tp.entries.Back()
		}
	}

	// Dirty victim: compose the writeback. With batch update every dirty
	// entry of the TP node joins the same translation-page update and
	// stays cached clean (§4.4); without it only the victim is written.
	v := tp.vtpn
	updates := f.evictScratch[:0]
	cleaned := 0
	if f.cfg.BatchUpdate {
		updates, cleaned = f.appendDirty(tp, victim, updates)
	} else {
		updates = append(updates, ftl.EntryUpdate{Off: int(victim.off), PPN: victim.ppn})
	}
	f.evictScratch = updates
	// Unlink the victim and clear dirty state BEFORE the flash write: the
	// write can trigger GC, and GC may re-dirty surviving entries with
	// fresher values that must not be clobbered afterwards.
	f.removeEntry(victim)
	env.NoteBatchWriteback(cleaned)
	if err := env.WriteTP(v, updates, false); err != nil {
		return false, err
	}
	return true, nil
}

// prevClean returns the first clean entry from n toward the MRU end, n
// included, or nil.
func prevClean(n *lru.Node[*entryNode]) *lru.Node[*entryNode] {
	for ; n != nil; n = n.Prev() {
		if !n.Value.dirty {
			return n
		}
	}
	return nil
}

// Update implements ftl.Translator.
func (f *FTL) Update(env ftl.Env, lpn ftl.LPN, ppn flash.PPN) error {
	f.ePerTP = env.EntriesPerTP()
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))
	if tp := f.tpAt(v); tp != nil {
		if e := f.entryAt(tp, off); e != nil {
			e.ppn = ppn
			tp.markDirty(e)
			f.touch(tp, e)
			return nil
		}
	}
	f.reserveEntries(env)
	// Standalone update (the write path normally populates the entry via
	// Translate first): make room and install dirty. The TP-node overhead
	// is charged only when lpn's node is not already cached (as in load),
	// and recomputed after every eviction run since a run can drop the node;
	// charging it unconditionally over-evicted one entry per standalone
	// update.
	for {
		floor := f.cfg.CacheBytes - f.entryBytes
		if f.tpAt(v) == nil {
			floor -= f.nodeBytes
		}
		if f.used <= floor {
			break
		}
		evicted, err := f.evictRun(env, floor)
		if err != nil {
			return err
		}
		if !evicted {
			return fmt.Errorf("tpftl: budget %d cannot hold one entry", f.cfg.CacheBytes)
		}
	}
	tp := f.tpAt(v)
	if tp == nil {
		tp = f.newTPNode(v)
	}
	e := f.addEntry(tp, off, ppn, true)
	f.touch(tp, e)
	return nil
}

// Discard implements ftl.Translator: a trimmed page's cached entry is
// dropped without writeback (the mapping is dead; the device rewrites the
// translation page itself as part of the discard). removeEntry handles the
// dirty count and drops the TP node when it empties — all slab-recycled,
// nothing allocates.
func (f *FTL) Discard(lpn ftl.LPN) {
	v := ftl.VTPNOf(lpn, f.ePerTP)
	tp := f.tpAt(v)
	if tp == nil {
		return
	}
	off := int32(ftl.OffOf(lpn, f.ePerTP))
	if e := f.entryAt(tp, off); e != nil {
		f.removeEntry(e)
	}
}

// FlushDirty implements ftl.Translator: a host flush barrier writes every
// dirty entry back, one batched translation-page update per dirty TP node,
// in ascending VTPN order (the dense directory is index-ordered already).
// Entries are marked clean as they are captured, BEFORE the flash write: a
// GC triggered mid-flush refreshes cached entries in place and must leave
// them dirty again.
func (f *FTL) FlushDirty(env ftl.Env) error {
	f.ePerTP = env.EntriesPerTP()
	for v := 0; v < len(f.byVTPN); v++ {
		tp := f.byVTPN[v]
		if tp == nil || tp.dirty == 0 {
			continue
		}
		ups, cleaned := f.appendDirty(tp, nil, f.flushScratch[:0])
		f.flushScratch = ups
		env.NoteBatchWriteback(cleaned - 1)
		if err := env.WriteTP(ftl.VTPN(v), ups, false); err != nil {
			return err
		}
	}
	return nil
}

// RefreshGC implements ftl.Translator: a cached entry takes the migrated
// page's new location and turns dirty, without counting as an access.
func (f *FTL) RefreshGC(lpn ftl.LPN, ppn flash.PPN) bool {
	tp := f.tpAt(ftl.VTPNOf(lpn, f.ePerTP))
	if tp == nil {
		return false
	}
	e := f.entryAt(tp, int32(ftl.OffOf(lpn, f.ePerTP)))
	if e == nil {
		return false
	}
	e.ppn = ppn
	tp.markDirty(e)
	return true
}

// AppendDirty implements ftl.DirtyAppender (§4.4): with batch update, the
// flash update GC makes to translation page v also writes back every cached
// dirty entry of v, which stays cached clean. Without it, ups is returned
// as is.
func (f *FTL) AppendDirty(v ftl.VTPN, ups []ftl.EntryUpdate) ([]ftl.EntryUpdate, int) {
	if !f.cfg.BatchUpdate {
		return ups, 0
	}
	tp := f.tpAt(v)
	if tp == nil || tp.dirty == 0 {
		return ups, 0
	}
	return f.appendDirty(tp, nil, ups)
}

// Snapshot implements ftl.Inspector.
func (f *FTL) Snapshot() ftl.CacheSnapshot {
	s := ftl.CacheSnapshot{
		Entries:      f.entries,
		TPNodes:      f.pages.Len(),
		UsedBytes:    f.used,
		DirtyPerPage: make(map[ftl.VTPN]int, f.pages.Len()),
	}
	for n := f.pages.Front(); n != nil; n = n.Next() {
		tp := n.Value
		s.DirtyPerPage[tp.vtpn] = tp.dirty
		s.DirtyEntries += tp.dirty
	}
	return s
}

// DirtyCached returns the LPN→PPN map of dirty cached entries for
// Device.CheckConsistency.
func (f *FTL) DirtyCached() map[ftl.LPN]flash.PPN {
	out := make(map[ftl.LPN]flash.PPN)
	for v, tp := range f.byVTPN {
		if tp == nil {
			continue
		}
		for n := tp.entries.Front(); n != nil; n = n.Next() {
			if e := n.Value; e.dirty {
				out[ftl.LPNAt(ftl.VTPN(v), int(e.off), f.ePerTP)] = e.ppn
			}
		}
	}
	return out
}

// CheckInvariants validates the internal structure; property tests call it
// after random operation sequences.
func (f *FTL) CheckInvariants() error {
	if f.rule2Err != nil {
		return f.rule2Err
	}
	if f.used > f.cfg.CacheBytes {
		return fmt.Errorf("tpftl: used %d exceeds budget %d", f.used, f.cfg.CacheBytes)
	}
	entries, used := 0, int64(0)
	for n := f.pages.Front(); n != nil; n = n.Next() {
		tp := n.Value
		if f.tpAt(tp.vtpn) != tp {
			return fmt.Errorf("tpftl: tp node %d not in index", tp.vtpn)
		}
		if tp.entries.Len() == 0 {
			return fmt.Errorf("tpftl: empty tp node %d still linked", tp.vtpn)
		}
		dirty := 0
		var sum uint64
		for en := tp.entries.Front(); en != nil; en = en.Next() {
			e := en.Value
			if e.owner != tp {
				return fmt.Errorf("tpftl: entry %d/%d has wrong owner", tp.vtpn, e.off)
			}
			if int(e.idx) >= len(f.eslab.nodes) || &f.eslab.nodes[e.idx] != e {
				return fmt.Errorf("tpftl: entry %d/%d is not the node at its slab position %d", tp.vtpn, e.off, e.idx)
			}
			if int(e.off) >= len(tp.byOff) || tp.byOff[e.off] != e.idx+1 {
				return fmt.Errorf("tpftl: entry %d/%d not in offset index", tp.vtpn, e.off)
			}
			if bit := tp.dirtyBits[e.off>>6]>>(e.off&63)&1 != 0; bit != e.dirty {
				return fmt.Errorf("tpftl: entry %d/%d dirty %v, dirty bit %v", tp.vtpn, e.off, e.dirty, bit)
			}
			if e.dirty {
				dirty++
			}
			sum += e.stamp
			entries++
		}
		if dirty != tp.dirty {
			return fmt.Errorf("tpftl: tp %d dirty count %d, counted %d", tp.vtpn, tp.dirty, dirty)
		}
		// Every cached dirty entry has its bit and no clean one does, so a
		// population above the count is a bit naming an uncached offset.
		set := 0
		for _, word := range tp.dirtyBits {
			set += bits.OnesCount64(word)
		}
		if set != tp.dirty {
			return fmt.Errorf("tpftl: tp %d has %d dirty bits for %d dirty entries", tp.vtpn, set, tp.dirty)
		}
		if sum != tp.stampSum {
			return fmt.Errorf("tpftl: tp %d stamp sum %d, counted %d", tp.vtpn, tp.stampSum, sum)
		}
		live := 0
		for _, slot := range tp.byOff {
			if slot != 0 {
				live++
			}
		}
		if live != tp.entries.Len() {
			return fmt.Errorf("tpftl: tp %d offset table has %d live slots, list %d (stale slot after recycle?)", tp.vtpn, live, tp.entries.Len())
		}
		used += int64(tp.entries.Len())*f.entryBytes + f.nodeBytes
	}
	if entries != f.entries {
		return fmt.Errorf("tpftl: entry count %d, counted %d", f.entries, entries)
	}
	if used != f.used {
		return fmt.Errorf("tpftl: used %d, counted %d", f.used, used)
	}
	indexed := 0
	for _, tp := range f.byVTPN {
		if tp != nil {
			indexed++
		}
	}
	if indexed != f.pages.Len() {
		return fmt.Errorf("tpftl: index holds %d nodes, page list %d", indexed, f.pages.Len())
	}
	if f.cfg.Hotness == HotnessAvg {
		var prev float64
		first := true
		for n := f.pages.Front(); n != nil; n = n.Next() {
			avg := n.Value.avgStamp()
			if !first && avg > prev {
				return fmt.Errorf("tpftl: page list not ordered by avg hotness")
			}
			prev, first = avg, false
		}
	}
	if err := f.eslab.check(f.entries); err != nil {
		return err
	}
	if err := f.tslab.check(); err != nil {
		return err
	}
	return nil
}
