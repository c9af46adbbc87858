package sftl

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/trace"
)

func deviceConfig(cacheBytes int64) ftl.Config {
	return ftl.Config{
		LogicalBytes:  16 << 20, // 4096 pages, 4 translation pages
		PageSize:      4096,
		PagesPerBlock: 32,
		OverProvision: 0.15,
		CacheBytes:    cacheBytes,
	}
}

func newDevice(t *testing.T, cacheBytes int64) (*ftl.Device, *FTL) {
	t.Helper()
	tr := New(Config{CacheBytes: cacheBytes})
	d, err := ftl.NewDevice(deviceConfig(cacheBytes), tr)
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

func TestRunCounting(t *testing.T) {
	mk := func(ppns ...int64) []flash.PPN {
		out := make([]flash.PPN, len(ppns))
		for i, p := range ppns {
			out[i] = flash.PPN(p)
		}
		return out
	}
	cases := []struct {
		name string
		vals []flash.PPN
		want int
	}{
		{"empty", nil, 0},
		{"single", mk(5), 1},
		{"fully sequential", mk(10, 11, 12, 13), 1},
		{"fully random", mk(9, 3, 7, 1), 4},
		{"two runs", mk(1, 2, 3, 9, 10), 2},
		{"invalid entries each own run", []flash.PPN{flash.InvalidPPN, flash.InvalidPPN}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := countRuns(tc.vals); got != tc.want {
				t.Fatalf("countRuns = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestRunDeltaMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]flash.PPN, 64)
	for i := range vals {
		vals[i] = flash.PPN(rng.Intn(100))
	}
	runs := countRuns(vals)
	for step := 0; step < 2000; step++ {
		off := int32(rng.Intn(len(vals)))
		var ppn flash.PPN
		if rng.Intn(4) == 0 {
			ppn = vals[off] // no-op update
		} else {
			ppn = flash.PPN(rng.Intn(100))
		}
		runs += runDelta(vals, off, ppn)
		vals[off] = ppn
		if want := countRuns(vals); runs != want {
			t.Fatalf("step %d: incremental runs %d, recount %d", step, runs, want)
		}
	}
}

func TestSequentialMappingCompressesWell(t *testing.T) {
	// Right after format the mapping is fully sequential: a cached page
	// costs only a header + one run, so many pages fit in a small cache.
	d, tr := newDevice(t, 1024)
	arrival := int64(0)
	for v := int64(0); v < 4; v++ {
		if _, err := d.Serve(rd(arrival, v*1024)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	if got := tr.CachedPages(); got != 4 {
		t.Fatalf("cached pages = %d, want all 4 (compressed)", got)
	}
	// Whole-page caching: any other entry of a cached page hits.
	if _, err := d.Serve(rd(arrival, 555)); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.Hits != 1 {
		t.Fatalf("hits = %d, want 1", m.Hits)
	}
}

func TestFullPageWritebackHasNoRead(t *testing.T) {
	// Small budget: random-PPN updates break runs, grow page costs and
	// force evictions.
	d, tr := newDevice(t, 256)
	tr.cfg.SparseThreshold = 1 // disable the dirty buffer path
	arrival := int64(0)
	// Dirty many entries of page 0 (random PPN updates break runs and grow
	// its cost). Then touch other pages to evict it.
	for i := int64(0); i < 20; i += 2 {
		if _, err := d.Serve(wr(arrival, i)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	readsBefore := d.Metrics().TransReadsAT
	for v := int64(1); v < 4; v++ {
		for k := int64(0); k < 4; k++ {
			if _, err := d.Serve(wr(arrival, v*1024+k*77)); err != nil {
				t.Fatal(err)
			}
			arrival += int64(time.Millisecond)
		}
	}
	m := d.Metrics()
	if m.TransWritesAT == 0 {
		t.Fatal("no writebacks despite dirty page evictions")
	}
	// Each eviction writeback is a full-page write: reads only come from
	// loads (one per distinct page, already counted) — the writeback adds
	// none beyond the loads of the new pages.
	loads := m.TransReadsAT - readsBefore
	if loads > 3 {
		t.Fatalf("loads = %d, want ≤3 (one per new page)", loads)
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyBufferPostponesSparseWritebacks(t *testing.T) {
	d, tr := newDevice(t, 256)
	arrival := int64(0)
	// One dirty entry in page 0 (sparse), then evict it by loading others.
	if _, err := d.Serve(wr(arrival, 7)); err != nil {
		t.Fatal(err)
	}
	arrival += int64(time.Millisecond)
	for v := int64(1); v < 4; v++ {
		for k := int64(0); k < 8; k++ {
			if _, err := d.Serve(wr(arrival, v*1024+k*100)); err != nil {
				t.Fatal(err)
			}
			arrival += int64(time.Millisecond)
		}
	}
	if tr.BufferedEntries() == 0 {
		t.Fatal("sparse dirty entries not parked in the buffer")
	}
	// The buffered entry must still translate correctly (freshest value).
	if _, err := d.Serve(rd(arrival, 7)); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

func TestBufferMergesOnReload(t *testing.T) {
	d, tr := newDevice(t, 256)
	arrival := int64(0)
	if _, err := d.Serve(wr(arrival, 7)); err != nil {
		t.Fatal(err)
	}
	arrival += int64(time.Millisecond)
	// Evict page 0 into the buffer.
	for v := int64(1); v < 4; v++ {
		for k := int64(0); k < 8; k++ {
			if _, err := d.Serve(wr(arrival, v*1024+k*100)); err != nil {
				t.Fatal(err)
			}
			arrival += int64(time.Millisecond)
		}
	}
	buffered := tr.BufferedEntries()
	if buffered == 0 {
		t.Skip("eviction went to writeback, not buffer (budget-dependent)")
	}
	// Reload page 0 via a different entry: the buffer entry must merge in.
	if _, err := d.Serve(rd(arrival, 900)); err != nil {
		t.Fatal(err)
	}
	if tr.BufferedEntries() >= buffered {
		t.Fatal("buffer not merged on page reload")
	}
	arrival += int64(time.Millisecond)
	if _, err := d.Serve(rd(arrival, 7)); err != nil {
		t.Fatal(err) // device verifies the translation
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

func TestRandomOpsConsistency(t *testing.T) {
	for _, seed := range []int64{21, 22} {
		d, tr := newDevice(t, 2048)
		rng := rand.New(rand.NewSource(seed))
		arrival := int64(0)
		for batch := 0; batch < 15; batch++ {
			for i := 0; i < 300; i++ {
				page := int64(rng.Intn(4096))
				n := int64(1 + rng.Intn(4))
				if page+n > 4096 {
					n = 4096 - page
				}
				arrival += int64(rng.Intn(300_000))
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

func TestSnapshot(t *testing.T) {
	d, tr := newDevice(t, 4096)
	arrival := int64(0)
	for i := int64(0); i < 3; i++ {
		if _, err := d.Serve(wr(arrival, i)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	s := tr.Snapshot()
	if s.DirtyEntries != 3 {
		t.Fatalf("dirty = %d, want 3", s.DirtyEntries)
	}
	if s.TPNodes != tr.CachedPages() {
		t.Fatalf("TPNodes = %d, pages = %d", s.TPNodes, tr.CachedPages())
	}
	dc := tr.DirtyCached()
	if len(dc) != 3 {
		t.Fatalf("DirtyCached = %d", len(dc))
	}
	for lpn, ppn := range dc {
		if m := d.Chip().MetaOf(ppn); d.Chip().State(ppn) != flash.PageValid || m.Kind != flash.KindData || m.Tag != int64(lpn) {
			t.Fatalf("dirty entry %d stale", lpn)
		}
	}
}

func opOf(write bool) trace.Op {
	if write {
		return trace.OpWrite
	}
	return trace.OpRead
}
