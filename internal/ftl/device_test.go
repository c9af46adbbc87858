package ftl_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/ftl/dftl"
	"repro/internal/ftl/optimal"
	"repro/internal/trace"
)

// testConfig returns a small device: 16 MB logical (4096 pages, 4
// translation pages), 32-page blocks.
func testConfig() ftl.Config {
	return ftl.Config{
		LogicalBytes:  16 << 20,
		PageSize:      4096,
		PagesPerBlock: 32,
		OverProvision: 0.15,
		CacheBytes:    512, // 64 DFTL entries
	}
}

func newOptimalDevice(t *testing.T, cfg ftl.Config) (*ftl.Device, *optimal.FTL) {
	t.Helper()
	tr := optimal.New(cfg.LogicalPages())
	d, err := ftl.NewDevice(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Format(); err != nil {
		t.Fatal(err)
	}
	tr.Warm(d.Persisted)
	return d, tr
}

func newDFTLDevice(t *testing.T, cfg ftl.Config) (*ftl.Device, *dftl.FTL) {
	t.Helper()
	tr := dftl.New(dftl.Config{CacheBytes: cfg.CacheBytes})
	d, err := ftl.NewDevice(cfg, tr)
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

func TestConfigDefaults(t *testing.T) {
	if got := ftl.DefaultCacheBytes(512 << 20); got != 8<<10 {
		t.Errorf("cache for 512MB = %d, want 8KB", got)
	}
	if got := ftl.DefaultCacheBytes(16 << 30); got != 256<<10 {
		t.Errorf("cache for 16GB = %d, want 256KB", got)
	}
	cfg := ftl.DefaultConfig(512 << 20)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.LogicalPages() != 131072 {
		t.Errorf("logical pages = %d", cfg.LogicalPages())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []ftl.Config{
		{LogicalBytes: 0},
		{LogicalBytes: -4096},
		{LogicalBytes: 4097}, // not page aligned
		{LogicalBytes: 16 << 20, OverProvision: -0.1},
		{LogicalBytes: 16 << 20, CacheBytes: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
		if _, err := ftl.NewDevice(cfg, optimal.New(1)); err == nil {
			t.Errorf("NewDevice accepted config %d", i)
		}
	}
}

// TestOversizedGeometryRefused: a device whose physical page count does not
// fit a 4-byte PPN is an error from NewDevice — before any per-page table is
// allocated — not a wrapped geometry.
func TestOversizedGeometryRefused(t *testing.T) {
	cfg := ftl.DefaultConfig(8 << 40) // 2^31 logical pages of 4 KiB
	_, err := ftl.NewDevice(cfg, dftl.New(dftl.Config{CacheBytes: cfg.CacheBytes}))
	if err == nil || !strings.Contains(err.Error(), "physical pages") || !strings.Contains(err.Error(), "2147483647") {
		t.Fatalf("NewDevice(8 TiB) error = %v, want the page count and the 2147483647-page limit", err)
	}
}

func TestFormatLaysOutDevice(t *testing.T) {
	d, _ := newOptimalDevice(t, testConfig())
	if !d.Formatted() {
		t.Fatal("not formatted")
	}
	// Every logical page must be mapped and persisted identically.
	for lpn := ftl.LPN(0); lpn < ftl.LPN(d.Config().LogicalPages()); lpn++ {
		if !d.Truth(lpn).Valid() {
			t.Fatalf("lpn %d unmapped after format", lpn)
		}
		if d.Truth(lpn) != d.Persisted(lpn) {
			t.Fatalf("lpn %d: truth %d != persist %d", lpn, d.Truth(lpn), d.Persisted(lpn))
		}
	}
	// Every translation page must exist.
	for v := 0; v < d.NumTPs(); v++ {
		if !d.GTDEntry(ftl.VTPN(v)).Valid() {
			t.Fatalf("vtpn %d missing after format", v)
		}
	}
	// Format is excluded from metrics.
	if m := d.Metrics(); m.FlashPrograms != 0 || m.PageWrites != 0 {
		t.Fatalf("format leaked into metrics: %+v", m)
	}
	if err := d.Format(); err == nil {
		t.Fatal("double format succeeded")
	}
}

func TestOptimalReadWrite(t *testing.T) {
	d, _ := newOptimalDevice(t, testConfig())
	if _, err := d.Serve(wr(0, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Serve(rd(1, 7)); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.PageReads != 1 || m.PageWrites != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Hr() != 1.0 {
		t.Fatalf("optimal hit ratio = %v", m.Hr())
	}
	if m.TransReads() != 0 || m.TransWrites() != 0 {
		t.Fatal("optimal FTL performed translation page I/O")
	}
}

func TestOptimalServiceTime(t *testing.T) {
	d, _ := newOptimalDevice(t, testConfig())
	resp, err := d.Serve(rd(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if want := 25 * time.Microsecond; resp != want {
		t.Fatalf("read response = %v, want %v (no GC, no translation)", resp, want)
	}
	resp, err = d.Serve(wr(int64(resp), 3))
	if err != nil {
		t.Fatal(err)
	}
	if want := 200 * time.Microsecond; resp != want {
		t.Fatalf("write response = %v, want %v", resp, want)
	}
}

func TestQueueingDelay(t *testing.T) {
	d, _ := newOptimalDevice(t, testConfig())
	// Two reads arriving at the same instant: the second queues behind the
	// first.
	r1, err := d.Serve(rd(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.Serve(rd(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r2 != 2*r1 {
		t.Fatalf("second response = %v, want %v (queued)", r2, 2*r1)
	}
	m := d.Metrics()
	if m.QueueTime != r1 {
		t.Fatalf("QueueTime = %v, want %v", m.QueueTime, r1)
	}
	// A late arrival does not queue.
	r3, err := d.Serve(rd(int64(10*time.Millisecond), 3))
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Fatalf("idle response = %v, want %v", r3, r1)
	}
}

func TestRequestValidationAtDevice(t *testing.T) {
	d, _ := newOptimalDevice(t, testConfig())
	if _, err := d.Serve(trace.Request{Offset: -1, Length: 4096}); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := d.Serve(trace.Request{Offset: 16 << 20, Length: 4096}); err == nil {
		t.Fatal("request beyond capacity accepted")
	}
}

func TestDFTLMissLoadsFromFlash(t *testing.T) {
	d, _ := newDFTLDevice(t, testConfig())
	if _, err := d.Serve(rd(0, 100)); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.Hits != 0 || m.Lookups != 1 {
		t.Fatalf("lookups %d hits %d, want 1/0", m.Lookups, m.Hits)
	}
	if m.TransReadsAT != 1 {
		t.Fatalf("TransReadsAT = %d, want 1", m.TransReadsAT)
	}
	// Second access to the same page hits.
	if _, err := d.Serve(rd(1, 100)); err != nil {
		t.Fatal(err)
	}
	m = d.Metrics()
	if m.Hits != 1 {
		t.Fatalf("hits = %d, want 1", m.Hits)
	}
	if m.TransReadsAT != 1 {
		t.Fatalf("TransReadsAT = %d, want still 1", m.TransReadsAT)
	}
}

func TestDFTLDirtyEvictionWritesBack(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBytes = 8 * 8 // 8 entries
	d, tr := newDFTLDevice(t, cfg)
	// Dirty 8 distinct pages, then touch 8 more to force dirty evictions.
	arrival := int64(0)
	for i := int64(0); i < 8; i++ {
		if _, err := d.Serve(wr(arrival, i)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	if got := tr.Len(); got != 8 {
		t.Fatalf("cache holds %d entries, want 8", got)
	}
	for i := int64(100); i < 108; i++ {
		if _, err := d.Serve(rd(arrival, i)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	m := d.Metrics()
	if m.Replacements == 0 {
		t.Fatal("no replacements recorded")
	}
	if m.DirtyReplaced == 0 {
		t.Fatal("no dirty replacements recorded")
	}
	if m.TransWritesAT == 0 {
		t.Fatal("no translation page writes during AT phase")
	}
	// Persisted state must now agree with truth for written-back entries.
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

func TestDFTLReadAfterWriteThroughEviction(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBytes = 8 * 8
	d, tr := newDFTLDevice(t, cfg)
	arrival := int64(0)
	// Write page 5, evict it by touching many others, then read it back:
	// the translation must come back from flash correctly.
	if _, err := d.Serve(wr(arrival, 5)); err != nil {
		t.Fatal(err)
	}
	for i := int64(200); i < 220; i++ {
		arrival += int64(time.Millisecond)
		if _, err := d.Serve(rd(arrival, i)); err != nil {
			t.Fatal(err)
		}
	}
	arrival += int64(time.Millisecond)
	if _, err := d.Serve(rd(arrival, 5)); err != nil {
		t.Fatal(err) // Serve verifies translation against truth internally
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	cfg := testConfig()
	d, tr := newDFTLDevice(t, cfg)
	// Overwrite a small hot set repeatedly: far more page writes than the
	// over-provisioned space, forcing many GC cycles.
	rng := rand.New(rand.NewSource(1))
	arrival := int64(0)
	for i := 0; i < 20000; i++ {
		page := int64(rng.Intn(512))
		arrival += int64(50 * time.Microsecond)
		if _, err := d.Serve(wr(arrival, page)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	m := d.Metrics()
	if m.FlashErases == 0 {
		t.Fatal("no erases despite heavy overwrite traffic")
	}
	if m.GCDataCollections == 0 {
		t.Fatal("no data GC collections")
	}
	if m.WriteAmplification() < 1 {
		t.Fatalf("WA = %v < 1", m.WriteAmplification())
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
	// All pages still readable and correctly mapped.
	for p := int64(0); p < 512; p++ {
		arrival += int64(50 * time.Microsecond)
		if _, err := d.Serve(rd(arrival, p)); err != nil {
			t.Fatalf("read %d after GC: %v", p, err)
		}
	}
}

func TestGCTranslationBlocks(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBytes = 16 * 8 // tiny cache → many dirty evictions → many TP writes
	d, tr := newDFTLDevice(t, cfg)
	rng := rand.New(rand.NewSource(2))
	arrival := int64(0)
	for i := 0; i < 30000; i++ {
		page := int64(rng.Intn(4096))
		arrival += int64(50 * time.Microsecond)
		if _, err := d.Serve(wr(arrival, page)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	m := d.Metrics()
	if m.GCTransCollections == 0 {
		t.Fatal("no translation block collections despite heavy TP churn")
	}
	if m.GCTransMigrations == 0 && m.Vt() != 0 {
		t.Fatal("translation collections recorded but no migrations/valid stats")
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalVsDFTLAgreeOnReads(t *testing.T) {
	cfgA := testConfig()
	dOpt, _ := newOptimalDevice(t, cfgA)
	dDftl, _ := newDFTLDevice(t, testConfig())

	rng := rand.New(rand.NewSource(3))
	arrival := int64(0)
	for i := 0; i < 5000; i++ {
		page := int64(rng.Intn(4096))
		write := rng.Intn(3) != 0
		arrival += int64(100 * time.Microsecond)
		var req trace.Request
		if write {
			req = wr(arrival, page)
		} else {
			req = rd(arrival, page)
		}
		if _, err := dOpt.Serve(req); err != nil {
			t.Fatalf("optimal: %v", err)
		}
		if _, err := dDftl.Serve(req); err != nil {
			t.Fatalf("dftl: %v", err)
		}
	}
	// Both devices internally verify translations against their ground
	// truth; surviving 5000 mixed ops on both means the schemes agree.
	mo, md := dOpt.Metrics(), dDftl.Metrics()
	if mo.PageWrites != md.PageWrites || mo.PageReads != md.PageReads {
		t.Fatalf("page access counts diverge: %+v vs %+v", mo, md)
	}
	if md.WriteAmplification() < mo.WriteAmplification() {
		t.Fatalf("DFTL WA %v below optimal %v", md.WriteAmplification(), mo.WriteAmplification())
	}
	if md.AvgResponse() < mo.AvgResponse() {
		t.Fatalf("DFTL response %v below optimal %v", md.AvgResponse(), mo.AvgResponse())
	}
}

func TestMultiPageRequestSplitting(t *testing.T) {
	d, _ := newOptimalDevice(t, testConfig())
	// A 5-page write.
	req := trace.Request{Arrival: 0, Offset: 3 * 4096, Length: 5 * 4096, Op: trace.OpWrite}
	if _, err := d.Serve(req); err != nil {
		t.Fatal(err)
	}
	if m := d.Metrics(); m.PageWrites != 5 {
		t.Fatalf("PageWrites = %d, want 5", m.PageWrites)
	}
	// Unaligned 1-byte read straddling nothing: 1 page access.
	req = trace.Request{Arrival: 1e9, Offset: 4097, Length: 1, Op: trace.OpRead}
	if _, err := d.Serve(req); err != nil {
		t.Fatal(err)
	}
	if m := d.Metrics(); m.PageReads != 1 {
		t.Fatalf("PageReads = %d, want 1", m.PageReads)
	}
}

func TestSamplingHook(t *testing.T) {
	d, _ := newOptimalDevice(t, testConfig())
	var samples []int64
	d.SampleEvery = 10
	d.OnSample = func(n int64) { samples = append(samples, n) }
	arrival := int64(0)
	for i := int64(0); i < 35; i++ {
		arrival += int64(time.Millisecond)
		if _, err := d.Serve(rd(arrival, i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(samples) != 3 {
		t.Fatalf("samples = %v, want 3 firings", samples)
	}
	for i, s := range samples {
		if s != int64(10*(i+1)) {
			t.Fatalf("sample %d at %d accesses", i, s)
		}
	}
}

func TestMetricsDerived(t *testing.T) {
	m := ftl.Metrics{
		PageReads: 25, PageWrites: 75,
		Lookups: 100, Hits: 80,
		Replacements: 10, DirtyReplaced: 4,
		GCMapUpdates: 10, GCMapHits: 5,
		GCDataCollections: 2, GCDataValidSum: 20,
		GCTransCollections: 4, GCTransValidSum: 8,
		TransWritesAT: 5, TransWritesGC: 5, GCTransMigrations: 5, GCDataMigrations: 10,
		Requests: 4, ResponseTime: 400, ServiceTime: 200,
	}
	if m.Hr() != 0.8 {
		t.Errorf("Hr = %v", m.Hr())
	}
	if m.Prd() != 0.4 {
		t.Errorf("Prd = %v", m.Prd())
	}
	if m.Hgcr() != 0.5 {
		t.Errorf("Hgcr = %v", m.Hgcr())
	}
	if m.Rw() != 0.75 {
		t.Errorf("Rw = %v", m.Rw())
	}
	if m.Vd() != 10 {
		t.Errorf("Vd = %v", m.Vd())
	}
	if m.Vt() != 2 {
		t.Errorf("Vt = %v", m.Vt())
	}
	// WA = (75 + 5+5+5+10)/75
	if got, want := m.WriteAmplification(), 100.0/75.0; got != want {
		t.Errorf("WA = %v, want %v", got, want)
	}
	if m.AvgResponse() != 100 {
		t.Errorf("AvgResponse = %v", m.AvgResponse())
	}
	if m.AvgService() != 50 {
		t.Errorf("AvgService = %v", m.AvgService())
	}
	var zero ftl.Metrics
	if zero.Hr() != 0 || zero.WriteAmplification() != 0 || zero.AvgResponse() != 0 {
		t.Error("zero metrics must not divide by zero")
	}
}

// TestRandomOpsConsistency is the core property test: after every batch of
// random operations against a DFTL device, the truth/persist/dirty-cache
// invariant and all chip invariants must hold.
func TestRandomOpsConsistency(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		cfg := testConfig()
		cfg.CacheBytes = 24 * 8
		d, tr := newDFTLDevice(t, cfg)
		rng := rand.New(rand.NewSource(seed))
		arrival := int64(0)
		for batch := 0; batch < 20; batch++ {
			for i := 0; i < 250; i++ {
				page := int64(rng.Intn(4096))
				arrival += int64(rng.Intn(200_000))
				n := int64(1 + rng.Intn(4))
				if page+n > 4096 {
					n = 4096 - page
				}
				req := trace.Request{
					Arrival: arrival, Offset: page * 4096, Length: n * 4096,
					Op: opOf(rng.Intn(2) == 0),
				}
				if _, err := d.Serve(req); err != nil {
					t.Fatalf("seed %d batch %d op %d: %v", seed, batch, i, err)
				}
			}
			if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
		}
	}
}

func TestFlashErrorPropagates(t *testing.T) {
	d, _ := newOptimalDevice(t, testConfig())
	boom := &flash.OpError{Op: "read", Page: 1, Msg: "injected"}
	d.Chip().FailNext("read", boom)
	if _, err := d.Serve(rd(0, 1)); err == nil {
		t.Fatal("injected flash error did not propagate")
	}
}

func TestDFTLSnapshot(t *testing.T) {
	cfg := testConfig()
	d, tr := newDFTLDevice(t, cfg)
	arrival := int64(0)
	for i := int64(0); i < 10; i++ {
		if _, err := d.Serve(wr(arrival, i)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	for i := int64(2000); i < 2005; i++ {
		if _, err := d.Serve(rd(arrival, i)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	s := tr.Snapshot()
	if s.Entries != 15 {
		t.Fatalf("snapshot entries = %d, want 15", s.Entries)
	}
	if s.DirtyEntries != 10 {
		t.Fatalf("dirty = %d, want 10", s.DirtyEntries)
	}
	// Pages 0..9 share vtpn 0; 2000..2004 share vtpn 1.
	if s.TPNodes != 2 {
		t.Fatalf("TPNodes = %d, want 2", s.TPNodes)
	}
	if s.DirtyPerPage[0] != 10 || s.DirtyPerPage[1] != 0 {
		t.Fatalf("DirtyPerPage = %v", s.DirtyPerPage)
	}
	if s.UsedBytes != 15*8 {
		t.Fatalf("UsedBytes = %d", s.UsedBytes)
	}
}

func opOf(write bool) trace.Op {
	if write {
		return trace.OpWrite
	}
	return trace.OpRead
}
