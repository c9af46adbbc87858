package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/ftl"
)

// The allocation guards pin the tentpole property of the performance PR: the
// steady-state service path allocates nothing. They are skipped under the
// race detector and the ftlsan build (allocguard_*.go), whose instrumentation
// allocates behind every operation.

// TestCacheHitReadAllocates0 proves the hit path — lookup, two-level LRU
// touch, scheduler issue, metrics — performs zero heap allocations per read.
func TestCacheHitReadAllocates0(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	d, _ := newTPFTLDevice(t, DefaultConfig(0), 1<<20)
	if _, err := d.Serve(wr(0, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Serve(rd(1, 5)); err != nil { // warm: entry now cached
		t.Fatal(err)
	}
	arrival := int64(2)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.Serve(rd(arrival, 5)); err != nil {
			t.Fatal(err)
		}
		arrival++
	})
	if allocs != 0 {
		t.Fatalf("cache-hit read allocates %v times per op, want 0", allocs)
	}
	m := d.Metrics()
	if m.Hits == 0 {
		t.Fatal("no hits recorded; the guard did not exercise the hit path")
	}
}

// TestMissEvictCycleAllocBound pins the other steady state: a read that
// misses, evicts from a full cache and installs from a recycled slab node.
// After warm-up the slabs and scratch buffers absorb everything the old code
// allocated per miss (entry/TP nodes, the byOff map, the dedup map, update
// slices); the remaining budget is a small pinned bound that covers device-
// side incidentals (GC bookkeeping) rather than per-miss cache garbage.
func TestMissEvictCycleAllocBound(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	// Budget of ~64 entries over a 4096-page device: nearly every random
	// read misses and evicts.
	d, tr := newTPFTLDevice(t, DefaultConfig(0), 512)
	rng := rand.New(rand.NewSource(11))
	arrival := int64(0)
	serveRandom := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := d.Serve(rd(arrival, rng.Int63n(4096))); err != nil {
				t.Fatal(err)
			}
			arrival++
		}
	}
	serveRandom(2_000) // warm the slabs and scratch buffers
	const reads = 500
	allocs := testing.AllocsPerRun(1, func() { serveRandom(reads) })
	perOp := allocs / reads
	const bound = 0.5
	if perOp > bound {
		t.Fatalf("miss+evict cycle allocates %.3f times per op, want <= %v", perOp, bound)
	}
	m := d.Metrics()
	if m.Hits*2 > m.Lookups {
		t.Fatalf("hit ratio %.2f too high; the guard did not exercise the miss path", float64(m.Hits)/float64(m.Lookups))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMissEvictRunAllocates0 is TestMissEvictCycleAllocBound for runs: an
// 8-page sequential sweep with request prefetch against a full 512-byte
// cache, so that every request misses once, evicts a run of eight entries
// from the coldest TP node and installs a run of eight. Reads run no GC, so
// nothing device-side allocates either: the bound is zero.
func TestMissEvictRunAllocates0(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	d, tr := newTPFTLDevice(t, DefaultConfig(0), 512)
	const pages = 4096 // deviceConfig's logical pages
	arrival, page := int64(0), int64(0)
	sweep := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := d.Serve(rdSpan(arrival, page, 8)); err != nil {
				t.Fatal(err)
			}
			arrival++
			page = (page + 8) % pages
		}
	}
	sweep(1_000) // warm: the slabs, the scratch buffers and the page directory
	before := d.Metrics()
	const reqs = 500
	allocs := testing.AllocsPerRun(1, func() { sweep(reqs) })
	if perOp := allocs / reqs; perOp != 0 {
		t.Fatalf("sequential miss+evict run allocates %.3f times per op, want 0", perOp)
	}
	m := d.Metrics()
	if got := m.Replacements - before.Replacements; got < 8*reqs {
		t.Fatalf("%d replacements over %d requests; the guard did not evict a run per miss", got, reqs)
	}
	if got := m.PrefetchedLoaded - before.PrefetchedLoaded; got < 7*reqs {
		t.Fatalf("%d entries prefetched over %d requests; the guard did not install a run per miss", got, reqs)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSlabRecycleStress churns the cache through eviction/reinstall cycles
// far larger than the budget and audits after every round that (a) recycled
// nodes are fully reset (CheckInvariants walks both slab free lists and the
// live structure) and (b) the mapping still agrees with the on-flash truth,
// so no stale dirty bit or offset survived a recycle.
func TestSlabRecycleStress(t *testing.T) {
	d, tr := newTPFTLDevice(t, DefaultConfig(0), 768)
	rng := rand.New(rand.NewSource(23))
	arrival := int64(0)
	for round := 0; round < 40; round++ {
		// Mixed phase: random writes dirty entries, random reads force
		// clean-first evictions, sequential spans trigger prefetch installs.
		for i := 0; i < 150; i++ {
			p := rng.Int63n(2048)
			var err error
			switch rng.Intn(3) {
			case 0:
				_, err = d.Serve(wr(arrival, p))
			case 1:
				_, err = d.Serve(rd(arrival, p))
			default:
				_, err = d.Serve(rdSpan(arrival, p%2040, 1+rng.Int63n(8)))
			}
			if err != nil {
				t.Fatal(err)
			}
			arrival++
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if len(tr.eslab.free) == 0 && len(tr.tslab.free) == 0 {
		t.Fatal("stress never populated a slab free list; recycling untested")
	}
}

// TestSlabReusesNodes pins the recycling itself: after churn far beyond the
// cache budget the entry slab hands out no new position and the TP slab
// allocates no fresh chunk — every new install is served from the free
// lists.
func TestSlabReusesNodes(t *testing.T) {
	d, tr := newTPFTLDevice(t, DefaultConfig(0), 512)
	rng := rand.New(rand.NewSource(7))
	arrival := int64(0)
	peakLive := 0
	churn := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := d.Serve(rd(arrival, rng.Int63n(4096))); err != nil {
				t.Fatal(err)
			}
			arrival++
			peakLive = max(peakLive, tr.Len())
		}
	}
	// Warm until the cache has been as full as it gets: how many 6-byte
	// entries the budget holds depends on how many 8-byte TP nodes share it,
	// and a new position is handed out exactly when more entries are live
	// than ever before.
	churn(3_000)
	// Entry positions are handed out in order and never taken back, so
	// len(nodes) is how many ever were. The TP slab's population, free +
	// live, only changes when a fresh chunk is allocated.
	handedOut := len(tr.eslab.nodes)
	tPop := len(tr.tslab.free) + tr.pages.Len()
	churn(5_000)
	if got := len(tr.eslab.nodes); got != handedOut {
		t.Fatalf("entry slab handed out %d new positions during steady-state churn (%d -> %d)", got-handedOut, handedOut, got)
	}
	if got := len(tr.tslab.free) + tr.pages.Len(); got != tPop {
		t.Fatalf("tp slab grew during steady-state churn: population %d -> %d", tPop, got)
	}
	if handedOut != peakLive {
		t.Fatalf("%d positions handed out for at most %d entries live at once", handedOut, peakLive)
	}
	if int64(cap(tr.eslab.nodes)) != 512/tr.entryBytes {
		t.Fatalf("%d entry slots; a 512-byte budget pays for %d entries", cap(tr.eslab.nodes), 512/tr.entryBytes)
	}
	t.Logf("steady state: %d of %d entry slots handed out, %d tp nodes allocated in total", handedOut, cap(tr.eslab.nodes), tPop)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEntrySlotsBoundedByLogicalPages: a budget that pays for more entries
// than the device has logical pages — the whole table cached, and an absurd
// 1 TiB beside a 64 MiB device — reserves one slot per logical page, not what
// the budget would buy, and touching every page hands out exactly that many.
func TestEntrySlotsBoundedByLogicalPages(t *testing.T) {
	const logicalBytes = 64 << 20
	pages := int64(logicalBytes / ftl.DefaultPageBytes)
	for _, cacheBytes := range []int64{
		pages * ftl.EntryBytesRAM, // sim.Options.CacheFraction 1.0; buys 4/3 of that in 6-byte entries
		1 << 40,
	} {
		dcfg := ftl.DefaultConfig(logicalBytes)
		dcfg.CacheBytes = cacheBytes
		tr := New(DefaultConfig(cacheBytes))
		d, err := ftl.NewDevice(dcfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Format(); err != nil {
			t.Fatal(err)
		}
		if tr.eslab.nodes != nil {
			t.Fatalf("budget %d: slab reserved before the first miss", cacheBytes)
		}
		for lpn := int64(0); lpn < pages; lpn += 8 {
			if _, err := d.Serve(rdSpan(lpn, lpn, 8)); err != nil {
				t.Fatal(err)
			}
		}
		if got := int64(cap(tr.eslab.nodes)); got > pages {
			t.Fatalf("budget %d: %d entry slots for %d logical pages", cacheBytes, got, pages)
		}
		if got := int64(len(tr.eslab.nodes)); got != int64(tr.Len()) || got > pages {
			t.Fatalf("budget %d: %d positions handed out, %d entries cached, %d logical pages", cacheBytes, got, tr.Len(), pages)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEntryNodeFitsCacheLine pins the entry node's size next to the
// allocation guards: with a 4-byte PPN a node is one 64-byte line, so a walk
// over a TP node's entries touches one line per entry.
func TestEntryNodeFitsCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(entryNode{}); got > 64 {
		t.Fatalf("entryNode is %d bytes, want at most 64", got)
	}
}

// TestCheckInvariantsAuditsIndexAndSlab breaks the positional index one way
// at a time — an offset slot that names no node, the wrong node or a node
// that is gone, a position free twice, free and linked, free but never handed
// out, or neither free nor linked — and expects CheckInvariants to refuse
// each and to accept the cache again once the damage is undone.
func TestCheckInvariantsAuditsIndexAndSlab(t *testing.T) {
	d, tr := newTPFTLDevice(t, DefaultConfig(0), 512)
	rng := rand.New(rand.NewSource(3))
	for i := int64(0); i < 3000; i++ {
		if _, err := d.Serve(rd(i, rng.Int63n(4096))); err != nil {
			t.Fatal(err)
		}
	}
	// Free a few positions so that the free list has something to corrupt.
	for tr.Len() > 40 {
		if _, err := tr.evictRun(d, tr.UsedBytes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(tr.eslab.free) < 2 {
		t.Fatalf("set-up left %d free positions", len(tr.eslab.free))
	}
	tp := tr.pages.Front().Value
	e := tp.entries.Front().Value
	other := tp.entries.Back().Value
	if e == other {
		other = tr.pages.Back().Value.entries.Front().Value
	}
	staleOff := int32(0)
	for tp.byOff[staleOff] != 0 {
		staleOff++
	}
	free := tr.eslab.free
	for _, c := range []struct {
		name          string
		corrupt, undo func()
	}{
		{"offset slot cleared under a live entry",
			func() { tp.byOff[e.off] = 0 }, func() { tp.byOff[e.off] = e.idx + 1 }},
		{"offset slot naming another entry's position",
			func() { tp.byOff[e.off] = other.idx + 1 }, func() { tp.byOff[e.off] = e.idx + 1 }},
		{"offset slot left behind by a removed entry",
			func() { tp.byOff[staleOff] = free[0] + 1 }, func() { tp.byOff[staleOff] = 0 }},
		{"entry that forgot its position",
			func() { e.idx = other.idx }, func() { e.idx = tp.byOff[e.off] - 1 }},
		{"position on the free list twice",
			func() { tr.eslab.free = append(free[:len(free):len(free)], free[0]) }, func() { tr.eslab.free = free }},
		{"linked position on the free list",
			func() { tr.eslab.free = append(free[:len(free):len(free)], e.idx) }, func() { tr.eslab.free = free }},
		{"free position never handed out",
			func() { tr.eslab.free = append(free[:len(free):len(free)], int32(len(tr.eslab.nodes))) }, func() { tr.eslab.free = free }},
		{"position neither free nor linked",
			func() { tr.eslab.free = free[:len(free)-1] }, func() { tr.eslab.free = free }},
	} {
		c.corrupt()
		if err := tr.CheckInvariants(); err == nil {
			t.Errorf("CheckInvariants accepted: %s", c.name)
		}
		c.undo()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: not undone: %v", c.name, err)
		}
	}
}
