package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/ftl/dftl"
	"repro/internal/trace"
)

// testConfig: 16 MB logical (4096 pages → 4 translation pages), 32-page
// blocks, small cache.
func deviceConfig(cacheBytes int64) ftl.Config {
	return ftl.Config{
		LogicalBytes:  16 << 20,
		PageSize:      4096,
		PagesPerBlock: 32,
		OverProvision: 0.15,
		CacheBytes:    cacheBytes,
	}
}

func newTPFTLDevice(t *testing.T, cfg Config, devCacheBytes int64) (*ftl.Device, *FTL) {
	t.Helper()
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = devCacheBytes
	}
	tr := New(cfg)
	d, err := ftl.NewDevice(deviceConfig(devCacheBytes), tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Format(); err != nil {
		t.Fatal(err)
	}
	return d, tr
}

func wr(arrival, page int64) trace.Request {
	return trace.Request{Arrival: arrival, Offset: page * 4096, Length: 4096, Op: trace.OpWrite}
}

func rd(arrival, page int64) trace.Request {
	return trace.Request{Arrival: arrival, Offset: page * 4096, Length: 4096, Op: trace.OpRead}
}

func rdSpan(arrival, page, n int64) trace.Request {
	return trace.Request{Arrival: arrival, Offset: page * 4096, Length: n * 4096, Op: trace.OpRead}
}

func TestVariantNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{}, "–"},
		{Config{RequestPrefetch: true}, "r"},
		{Config{SelectivePrefetch: true}, "s"},
		{Config{BatchUpdate: true}, "b"},
		{Config{CleanFirst: true}, "c"},
		{Config{BatchUpdate: true, CleanFirst: true}, "bc"},
		{Config{RequestPrefetch: true, SelectivePrefetch: true}, "rs"},
		{DefaultConfig(1024), "rsbc"},
	}
	for _, tc := range cases {
		if got := tc.cfg.VariantName(); got != tc.want {
			t.Errorf("VariantName(%+v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}
}

func TestBasicHitMiss(t *testing.T) {
	d, tr := newTPFTLDevice(t, DefaultConfig(0), 1024)
	if _, err := d.Serve(rd(0, 50)); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.Lookups != 1 || m.Hits != 0 {
		t.Fatalf("first access: lookups %d hits %d", m.Lookups, m.Hits)
	}
	if _, err := d.Serve(rd(1e9, 50)); err != nil {
		t.Fatal(err)
	}
	m = d.Metrics()
	if m.Hits != 1 {
		t.Fatalf("second access should hit, hits = %d", m.Hits)
	}
	if tr.Len() < 1 || tr.TPNodes() != 1 {
		t.Fatalf("cache: %d entries in %d nodes", tr.Len(), tr.TPNodes())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoLevelStructure(t *testing.T) {
	d, tr := newTPFTLDevice(t, Config{}, 1024)
	arrival := int64(0)
	// Touch pages in two different translation pages (1024 entries each).
	for _, p := range []int64{0, 1, 2, 2000, 2001} {
		if _, err := d.Serve(rd(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	if tr.TPNodes() != 2 {
		t.Fatalf("TPNodes = %d, want 2", tr.TPNodes())
	}
	if tr.Len() != 5 {
		t.Fatalf("entries = %d, want 5", tr.Len())
	}
	s := tr.Snapshot()
	if s.Entries != 5 || s.TPNodes != 2 || s.DirtyEntries != 0 {
		t.Fatalf("snapshot %+v", s)
	}
	// 5 compressed entries... Config{} has CompressEntries=false → 8 B.
	if s.UsedBytes != 5*8+2*8 {
		t.Fatalf("UsedBytes = %d", s.UsedBytes)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionIncreasesCapacity(t *testing.T) {
	budget := int64(10 * 8) // 10 uncompressed entries, no node overhead spare
	plain := New(Config{CacheBytes: budget})
	comp := New(Config{CacheBytes: budget, CompressEntries: true})
	if plain.entryBytes != 8 || comp.entryBytes != 6 {
		t.Fatalf("entry sizes %d/%d", plain.entryBytes, comp.entryBytes)
	}
}

func TestRequestLevelPrefetch(t *testing.T) {
	d, tr := newTPFTLDevice(t, Config{RequestPrefetch: true}, 4096)
	// A 6-page read: one miss, 5 prefetched entries, all within one TP.
	if _, err := d.Serve(rdSpan(0, 10, 6)); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.Lookups != 6 {
		t.Fatalf("lookups = %d, want 6", m.Lookups)
	}
	if m.Hits != 5 {
		t.Fatalf("hits = %d, want 5 (pages 11-15 prefetched)", m.Hits)
	}
	if m.TransReadsAT != 1 {
		t.Fatalf("TransReadsAT = %d, want 1 (single page read)", m.TransReadsAT)
	}
	if m.PrefetchedLoaded != 5 {
		t.Fatalf("PrefetchedLoaded = %d, want 5", m.PrefetchedLoaded)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Without the technique, every page of a span misses.
	d2, _ := newTPFTLDevice(t, Config{}, 4096)
	if _, err := d2.Serve(rdSpan(0, 10, 6)); err != nil {
		t.Fatal(err)
	}
	if m2 := d2.Metrics(); m2.Hits != 0 || m2.TransReadsAT != 6 {
		t.Fatalf("bare variant: hits %d transreads %d, want 0/6", m2.Hits, m2.TransReadsAT)
	}
}

func TestRequestPrefetchStopsAtTPBoundary(t *testing.T) {
	d, _ := newTPFTLDevice(t, Config{RequestPrefetch: true}, 8192)
	// Pages 1020..1027 span translation pages 0 (1020-1023) and 1
	// (1024-1027): rule 1 forces one read per translation page.
	if _, err := d.Serve(rdSpan(0, 1020, 8)); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.TransReadsAT != 2 {
		t.Fatalf("TransReadsAT = %d, want 2 (one per translation page)", m.TransReadsAT)
	}
	if m.Hits != 6 {
		t.Fatalf("hits = %d, want 6", m.Hits)
	}
}

func TestSelectivePrefetchActivation(t *testing.T) {
	tr := New(Config{SelectivePrefetch: true, CacheBytes: 1 << 20})
	if tr.SelectiveActive() {
		t.Fatal("selective prefetching must start off")
	}
	// Counter −3 → activate.
	tr.stepCounter(-1)
	tr.stepCounter(-1)
	if tr.SelectiveActive() {
		t.Fatal("activated too early")
	}
	tr.stepCounter(-1)
	if !tr.SelectiveActive() {
		t.Fatal("not activated at −threshold")
	}
	if tr.counter != 0 {
		t.Fatal("counter not reset")
	}
	// Counter +3 → deactivate.
	tr.stepCounter(+1)
	tr.stepCounter(+1)
	tr.stepCounter(+1)
	if tr.SelectiveActive() {
		t.Fatal("not deactivated at +threshold")
	}
}

func TestSelectivePrefetchLength(t *testing.T) {
	// Force selective mode on, then check that a miss with two cached
	// consecutive predecessors loads two successors.
	d, tr := newTPFTLDevice(t, Config{SelectivePrefetch: true}, 4096)
	arrival := int64(0)
	for _, p := range []int64{334, 335} { // predecessors of 336
		if _, err := d.Serve(rd(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	tr.selectiveOn = true
	if _, err := d.Serve(rd(arrival, 336)); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.PrefetchedLoaded != 2 {
		t.Fatalf("PrefetchedLoaded = %d, want 2 (337, 338)", m.PrefetchedLoaded)
	}
	// 337 and 338 must now hit.
	arrival += int64(time.Millisecond)
	if _, err := d.Serve(rd(arrival, 337)); err != nil {
		t.Fatal(err)
	}
	arrival += int64(time.Millisecond)
	if _, err := d.Serve(rd(arrival, 338)); err != nil {
		t.Fatal(err)
	}
	if m := d.Metrics(); m.Hits != 2 {
		t.Fatalf("hits = %d, want 2", m.Hits)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchUpdateReplacement(t *testing.T) {
	// Budget: 8 compressed entries + 1 node = 56 B. Dirty several entries
	// of one TP, then force an eviction: with batch update one translation
	// page write cleans them all.
	cfg := Config{BatchUpdate: true, CompressEntries: true, CacheBytes: 6*8 + 8}
	d, tr := newTPFTLDevice(t, cfg, 1024)
	arrival := int64(0)
	for i := int64(0); i < 14; i++ { // all in vtpn 0; 8 entries fit, then evictions
		if _, err := d.Serve(wr(arrival, i)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	m := d.Metrics()
	if m.DirtyReplaced == 0 {
		t.Fatal("expected at least one dirty replacement")
	}
	if m.BatchWritebacks == 0 || m.BatchCleaned == 0 {
		t.Fatalf("batch update did not clean survivors: %+v", m)
	}
	// After the batches, evicting the remaining entries costs at most one
	// more translation-page write (all residual dirty entries flush
	// together); without batching it would cost one write per dirty entry.
	writesAfterBatch := m.TransWritesAT
	dirtyLeft := int64(tr.Snapshot().DirtyEntries)
	for i := int64(2000); i < 2012; i++ {
		if _, err := d.Serve(rd(arrival, i)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	m = d.Metrics()
	if extra := m.TransWritesAT - writesAfterBatch; extra > 1 {
		t.Fatalf("flushing %d dirty survivors took %d writes, want ≤1 (batched)", dirtyLeft, extra)
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

func TestWithoutBatchUpdateEachDirtyEvictionWrites(t *testing.T) {
	run := func(batch bool) int64 {
		cfg := Config{BatchUpdate: batch, CompressEntries: true, CacheBytes: 6*8 + 8}
		d, _ := newTPFTLDevice(t, cfg, 1024)
		arrival := int64(0)
		for i := int64(0); i < 40; i++ {
			if _, err := d.Serve(wr(arrival, i)); err != nil {
				t.Fatal(err)
			}
			arrival += int64(time.Millisecond)
		}
		return d.Metrics().TransWritesAT
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("batch update writes %d, without %d — expected fewer with batching", with, without)
	}
}

func TestCleanFirstReplacement(t *testing.T) {
	// Cache: one TP node with a mix of clean and dirty entries; the first
	// eviction must pick a clean one even if dirty entries are colder.
	cfg := Config{CleanFirst: true, CompressEntries: true, CacheBytes: 4*6 + 8}
	d, tr := newTPFTLDevice(t, cfg, 1024)
	arrival := int64(0)
	// Two dirty (written) then two clean (read) entries — dirty are LRU.
	for _, p := range []int64{0, 1} {
		if _, err := d.Serve(wr(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	for _, p := range []int64{2, 3} {
		if _, err := d.Serve(rd(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	// Next miss evicts: victim must be clean (page 2, the LRU clean).
	if _, err := d.Serve(rd(arrival, 4)); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.Replacements != 1 {
		t.Fatalf("replacements = %d, want 1", m.Replacements)
	}
	if m.DirtyReplaced != 0 {
		t.Fatal("clean-first picked a dirty victim")
	}
	if m.TransWritesAT != 0 {
		t.Fatal("clean eviction wrote flash")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUWithoutCleanFirstEvictsDirty(t *testing.T) {
	cfg := Config{CompressEntries: true, CacheBytes: 4*6 + 8}
	d, _ := newTPFTLDevice(t, cfg, 1024)
	arrival := int64(0)
	for _, p := range []int64{0, 1} {
		if _, err := d.Serve(wr(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	for _, p := range []int64{2, 3} {
		if _, err := d.Serve(rd(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	if _, err := d.Serve(rd(arrival, 4)); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.DirtyReplaced != 1 {
		t.Fatalf("without clean-first the LRU (dirty) entry must go; DirtyReplaced = %d", m.DirtyReplaced)
	}
}

func TestEvictionConfinedToColdestTPNode(t *testing.T) {
	// Rule 2: a prefetch that would evict more entries than the coldest TP
	// node holds is truncated.
	cfg := Config{RequestPrefetch: true, CompressEntries: true, CacheBytes: 8*6 + 2*8}
	d, tr := newTPFTLDevice(t, cfg, 1024)
	arrival := int64(0)
	// Fill: 2 entries in vtpn 1 (cold), 6 in vtpn 0 (hot).
	for _, p := range []int64{2000, 2001, 0, 1, 2, 3, 4, 5} {
		if _, err := d.Serve(rd(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	if tr.Len() != 8 || tr.TPNodes() != 2 {
		t.Fatalf("setup: %d entries, %d nodes", tr.Len(), tr.TPNodes())
	}
	// One address translation of an 8-page request in vtpn 2: it wants 8
	// slots, but rule 2 confines replacement to the coldest TP node
	// (vtpn 1, two entries), so the prefetch is capped and the hot node
	// (vtpn 0) survives this translation untouched.
	tr.BeginRequest(2048+100, 2048+107, false)
	if _, err := tr.Translate(d, 2048+100); err != nil {
		t.Fatal(err)
	}
	s := tr.Snapshot()
	if _, stillThere := s.DirtyPerPage[ftl.VTPN(0)]; !stillThere {
		t.Fatal("hot TP node evicted despite rule 2")
	}
	if _, gone := s.DirtyPerPage[ftl.VTPN(1)]; gone {
		t.Fatal("coldest TP node should have been consumed by the eviction")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGCBatchFlushesCachedDirtyEntries(t *testing.T) {
	cfg := DefaultConfig(0)
	d, tr := newTPFTLDevice(t, cfg, 2048)
	rng := rand.New(rand.NewSource(4))
	arrival := int64(0)
	for i := 0; i < 15000; i++ {
		page := int64(rng.Intn(1024)) // hot first translation page
		arrival += int64(30 * time.Microsecond)
		if _, err := d.Serve(wr(arrival, page)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	m := d.Metrics()
	if m.GCDataCollections == 0 {
		t.Fatal("no GC happened")
	}
	if m.GCMapUpdates == 0 {
		t.Fatal("no GC mapping updates")
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHotnessAvgOrdering(t *testing.T) {
	cfg := Config{Hotness: HotnessAvg, CompressEntries: true, CacheBytes: 1 << 16}
	d, tr := newTPFTLDevice(t, cfg, 1<<16)
	arrival := int64(0)
	// Build three TP nodes with different access frequencies.
	for i := 0; i < 30; i++ {
		var p int64
		switch {
		case i%3 == 0:
			p = int64(i % 5) // vtpn 0, hottest
		case i%3 == 1:
			p = 1024 + int64(i%5) // vtpn 1
		default:
			p = 2048 // vtpn 2, one entry
		}
		if _, err := d.Serve(rd(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err) // includes the avg-ordering check
	}
}

// serveAll serves every request on dev at queue depth 1.
func serveAll(t *testing.T, dev *ftl.Device, reqs []trace.Request) {
	t.Helper()
	for i, r := range reqs {
		if _, err := dev.Serve(r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestTPFTLOutperformsDFTLOnWrites(t *testing.T) {
	// Same cache budget, same random-write workload: TPFTL must issue
	// fewer translation page writes (the paper's headline result).
	const cache = 512
	mkReqs := func() []trace.Request {
		rng := rand.New(rand.NewSource(11))
		reqs := make([]trace.Request, 8000)
		arrival := int64(0)
		for i := range reqs {
			arrival += int64(100 * time.Microsecond)
			reqs[i] = wr(arrival, int64(rng.Intn(4096)))
		}
		return reqs
	}

	dT, trT := newTPFTLDevice(t, DefaultConfig(cache), cache)
	serveAll(t, dT, mkReqs())
	trDF := dftl.New(dftl.Config{CacheBytes: cache})
	dD, err := ftl.NewDevice(deviceConfig(cache), trDF)
	if err != nil {
		t.Fatal(err)
	}
	if err := dD.Format(); err != nil {
		t.Fatal(err)
	}
	serveAll(t, dD, mkReqs())

	mT, mD := dT.Metrics(), dD.Metrics()
	if mT.TransWrites() >= mD.TransWrites() {
		t.Fatalf("TPFTL trans writes %d not below DFTL %d", mT.TransWrites(), mD.TransWrites())
	}
	if mT.Prd() >= mD.Prd() {
		t.Fatalf("TPFTL Prd %.3f not below DFTL %.3f", mT.Prd(), mD.Prd())
	}
	if err := dT.CheckConsistency(trT.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

// TestRandomOpsConsistency drives TPFTL variants through random mixed
// workloads with full invariant checking.
func TestRandomOpsConsistency(t *testing.T) {
	variants := []Config{
		{},
		{BatchUpdate: true},
		{CleanFirst: true},
		{RequestPrefetch: true},
		{SelectivePrefetch: true},
		DefaultConfig(0),
		{Hotness: HotnessAvg, BatchUpdate: true, CleanFirst: true},
	}
	for vi, cfg := range variants {
		cfg.CompressEntries = vi%2 == 0 // exercise both entry sizes
		d, tr := newTPFTLDevice(t, cfg, 768)
		rng := rand.New(rand.NewSource(int64(100 + vi)))
		arrival := int64(0)
		for batch := 0; batch < 12; batch++ {
			for i := 0; i < 300; i++ {
				page := int64(rng.Intn(4096))
				n := int64(1 + rng.Intn(6))
				if page+n > 4096 {
					n = 4096 - page
				}
				arrival += int64(rng.Intn(300_000))
				req := trace.Request{
					Arrival: arrival, Offset: page * 4096, Length: n * 4096,
					Op: opOf(rng.Intn(2) == 0),
				}
				if _, err := d.Serve(req); err != nil {
					t.Fatalf("variant %q batch %d op %d: %v", cfg.VariantName(), batch, i, err)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("variant %q batch %d: %v", cfg.VariantName(), batch, err)
			}
			if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
				t.Fatalf("variant %q batch %d: %v", cfg.VariantName(), batch, err)
			}
		}
	}
}

func TestSnapshotAndDirtyCached(t *testing.T) {
	d, tr := newTPFTLDevice(t, DefaultConfig(0), 4096)
	arrival := int64(0)
	for i := int64(0); i < 5; i++ {
		if _, err := d.Serve(wr(arrival, i)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	s := tr.Snapshot()
	if s.DirtyEntries != 5 {
		t.Fatalf("dirty = %d, want 5", s.DirtyEntries)
	}
	dc := tr.DirtyCached()
	if len(dc) != 5 {
		t.Fatalf("DirtyCached len = %d", len(dc))
	}
	for lpn, ppn := range dc {
		if !holdsLPN(d.Chip(), ppn, lpn) {
			t.Fatalf("dirty entry %d holds %d, not the valid page tagged with it", lpn, ppn)
		}
	}
}

// holdsLPN reports whether the chip says page p holds lpn's live data: a
// valid data page tagged lpn, of which there is one per mapped LPN.
func holdsLPN(chip *flash.Chip, p flash.PPN, lpn ftl.LPN) bool {
	m := chip.MetaOf(p)
	return chip.State(p) == flash.PageValid && m.Kind == flash.KindData && m.Tag == int64(lpn)
}

func TestUpdateWithoutTranslate(t *testing.T) {
	// A bare Update (not preceded by Translate) must still install a dirty
	// entry correctly.
	d, tr := newTPFTLDevice(t, DefaultConfig(0), 1024)
	if err := tr.Update(d, 7, d.Persisted(7)); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("entries = %d", tr.Len())
	}
	if tr.Snapshot().DirtyEntries != 1 {
		t.Fatal("entry not dirty")
	}
}

func TestTinyBudgetStillWorks(t *testing.T) {
	// A budget below one entry is clamped up by New.
	d, tr := newTPFTLDevice(t, Config{CacheBytes: 1}, 1024)
	arrival := int64(0)
	for i := int64(0); i < 50; i++ {
		if _, err := d.Serve(wr(arrival, i%8)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
