package zftl

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/ftl"
	"repro/internal/trace"
	"repro/internal/workload"
)

func newDevice(t *testing.T, cacheBytes int64) (*ftl.Device, *FTL) {
	t.Helper()
	tr := New(Config{CacheBytes: cacheBytes, ZoneTPs: 2})
	d, err := ftl.NewDevice(ftl.Config{
		LogicalBytes:  16 << 20, // 4096 pages → 4 TPs → 2 zones
		PageSize:      4096,
		PagesPerBlock: 32,
		OverProvision: 0.15,
		CacheBytes:    cacheBytes,
	}, tr)
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

func TestZoneSwitchOnCrossZoneAccess(t *testing.T) {
	d, tr := newDevice(t, 8<<10)
	if _, err := d.Serve(rd(0, 10)); err != nil { // zone 0
		t.Fatal(err)
	}
	if tr.ActiveZone() != 0 || tr.ZoneSwitches() != 1 {
		t.Fatalf("zone %d switches %d", tr.ActiveZone(), tr.ZoneSwitches())
	}
	if _, err := d.Serve(rd(1e6, 3000)); err != nil { // zone 1 (TPs 2-3)
		t.Fatal(err)
	}
	if tr.ActiveZone() != 1 || tr.ZoneSwitches() != 2 {
		t.Fatalf("zone %d switches %d", tr.ActiveZone(), tr.ZoneSwitches())
	}
	// Back to zone 0: another cumbersome switch.
	if _, err := d.Serve(rd(2e6, 11)); err != nil {
		t.Fatal(err)
	}
	if tr.ZoneSwitches() != 3 {
		t.Fatalf("switches = %d", tr.ZoneSwitches())
	}
}

func TestInZoneAccessesHitTier2(t *testing.T) {
	d, _ := newDevice(t, 8<<10)
	if _, err := d.Serve(rd(0, 10)); err != nil {
		t.Fatal(err)
	}
	reads := d.Metrics().TransReadsAT
	// Same translation page: must hit tier 2.
	if _, err := d.Serve(rd(1e6, 11)); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.TransReadsAT != reads {
		t.Fatal("in-page access read flash again")
	}
	if m.Hits != 1 {
		t.Fatalf("hits = %d", m.Hits)
	}
}

func TestZoneSwitchFlushesDirty(t *testing.T) {
	d, tr := newDevice(t, 8<<10)
	arrival := int64(0)
	for p := int64(0); p < 5; p++ { // dirty entries in zone 0
		if _, err := d.Serve(wr(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	writesBefore := d.Metrics().TransWritesAT
	if _, err := d.Serve(rd(arrival, 3000)); err != nil { // switch to zone 1
		t.Fatal(err)
	}
	if got := d.Metrics().TransWritesAT; got <= writesBefore {
		t.Fatal("zone switch did not flush dirty entries")
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

func TestZoneSwitchSkipsCleanPages(t *testing.T) {
	// Tier 2 holds both translation pages of a zone.
	d, tr := newDevice(t, 16<<10)
	if _, err := d.Serve(wr(0, 5)); err != nil { // TP 0: dirty
		t.Fatal(err)
	}
	if _, err := d.Serve(rd(1e6, 1500)); err != nil { // TP 1: cached clean
		t.Fatal(err)
	}
	before := d.Metrics()
	if _, err := d.Serve(rd(2e6, 3000)); err != nil { // switch to zone 1
		t.Fatal(err)
	}
	m := d.Metrics()
	if tr.ZoneSwitches() != 2 || m.GCDataCollections+m.GCTransCollections != 0 {
		t.Fatalf("%d switches, %d collections: want 2 and none", tr.ZoneSwitches(), m.GCDataCollections+m.GCTransCollections)
	}
	if got := m.TransWritesAT - before.TransWritesAT; got != 1 {
		t.Fatalf("zone switch wrote %d translation pages, want 1: the clean page is dropped, not rewritten", got)
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

func TestTier1BatchEviction(t *testing.T) {
	tr := New(Config{CacheBytes: 8 << 10, ZoneTPs: 2, Tier1Entries: 4})
	d, err := ftl.NewDevice(ftl.Config{
		LogicalBytes: 16 << 20, PageSize: 4096, PagesPerBlock: 32,
		OverProvision: 0.15, CacheBytes: 8 << 10,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Format(); err != nil {
		t.Fatal(err)
	}
	// Updates land in tier 1 when their page is not in tier 2. Force that
	// by updating pages of a zone while tier 2 holds other pages... easier:
	// Update directly (standalone).
	for i := int64(0); i < 6; i++ {
		if err := tr.Update(d, ftl.LPN(i), d.Persisted(ftl.LPN(i))); err != nil {
			t.Fatal(err)
		}
	}
	if d.Metrics().TransWritesAT == 0 {
		t.Fatal("tier-1 overflow did not batch-evict")
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

// TestTier1EmptyThroughTheDevice pins what the package comment says of tier
// 1: a device write translates its page before it updates it, and Translate
// loads the page into tier 2 (switching zone first if it must), so the
// Update lands in the cached page and tier 1 never holds an entry. A
// write-heavy Financial1 stream, with zone switches and tier-2 evictions
// throughout, leaves tier 1 empty after every request.
func TestTier1EmptyThroughTheDevice(t *testing.T) {
	// One translation page a zone, so the stream's footprint spans zones.
	tr := New(Config{CacheBytes: 8 << 10, ZoneTPs: 1})
	d, err := ftl.NewDevice(ftl.Config{
		LogicalBytes: 16 << 20, PageSize: 4096, PagesPerBlock: 32,
		OverProvision: 0.15, CacheBytes: 8 << 10,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Format(); err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Financial1().Scale(16<<20), 6000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if _, err := d.Serve(r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(tr.tier1) != 0 {
			t.Fatalf("request %d (%v) left %d entries in tier 1", i, r.Op, len(tr.tier1))
		}
	}
	if m := d.Metrics(); m.PageWrites == 0 || m.TransWritesAT == 0 || tr.ZoneSwitches() < 100 {
		t.Fatalf("%d page writes, %d translation writes, %d zone switches: the stream no longer exercises ZFTL's write paths",
			m.PageWrites, m.TransWritesAT, tr.ZoneSwitches())
	}
}

func TestRandomOpsConsistency(t *testing.T) {
	d, tr := newDevice(t, 8<<10)
	rng := rand.New(rand.NewSource(8))
	arrival := int64(0)
	for batch := 0; batch < 10; batch++ {
		for i := 0; i < 300; i++ {
			p := int64(rng.Intn(4096))
			arrival += int64(rng.Intn(300_000))
			var req trace.Request
			if rng.Intn(2) == 0 {
				req = rd(arrival, p)
			} else {
				req = wr(arrival, p)
			}
			if _, err := d.Serve(req); err != nil {
				t.Fatalf("batch %d op %d: %v", batch, i, err)
			}
		}
		if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
}

func TestName(t *testing.T) {
	if New(Config{}).Name() != "ZFTL" {
		t.Fatal("name")
	}
}

// TestDirtyCachedMergesTiers: tier-1 entries below and above a cached
// tier-2 page list around the page's dirty slots, in one ascending run.
// Through the device an update lands in the page Translate just loaded, so
// only standalone updates (and a page outside the active zone) put both
// tiers on the list at once.
func TestDirtyCachedMergesTiers(t *testing.T) {
	d, tr := newDevice(t, 8<<10)
	if _, err := d.Serve(rd(0, 3000)); err != nil { // zone 1, tier 2 holds TP 2
		t.Fatal(err)
	}
	for _, lpn := range []ftl.LPN{3500, 100, 3000} { // TP 3 and TP 0 go to tier 1
		if err := tr.Update(d, lpn, d.Persisted(lpn)); err != nil {
			t.Fatal(err)
		}
	}
	var got []ftl.LPN
	for _, e := range tr.DirtyCached() {
		got = append(got, e.LPN)
	}
	if want := []ftl.LPN{100, 3000, 3500}; !slices.Equal(got, want) {
		t.Fatalf("DirtyCached lists lpns %v, want %v", got, want)
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}
