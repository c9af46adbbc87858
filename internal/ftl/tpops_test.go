package ftl_test

// Tests for the O(touched) translation-page operations: the counted fold
// against the full scan it replaced, the unmapped[] recount, ReadTP's view,
// and the allocation-free collection.

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/ftl/cdftl"
	"repro/internal/ftl/dftl"
	"repro/internal/ftl/optimal"
	"repro/internal/ftl/sftl"
	"repro/internal/ftl/zftl"
	"repro/internal/trace"
)

// tpopsPageSize gives 128 entries per translation page, so a small device
// still has many translation pages and a trim easily spans several.
const tpopsPageSize = 512

func tpopsConfig(pages int64) ftl.Config {
	return ftl.Config{
		LogicalBytes:  pages * tpopsPageSize,
		PageSize:      tpopsPageSize,
		PagesPerBlock: 16,
		OverProvision: 0.15,
		CacheBytes:    512,
	}
}

// sixTranslators builds every scheme the simulator ships, each with a cache
// small enough that the sequences below evict and write back constantly.
func sixTranslators(cfg ftl.Config) []func() ftl.Translator {
	return []func() ftl.Translator{
		func() ftl.Translator { return core.New(core.DefaultConfig(cfg.CacheBytes)) },
		func() ftl.Translator { return dftl.New(dftl.Config{CacheBytes: cfg.CacheBytes}) },
		func() ftl.Translator { return sftl.New(sftl.Config{CacheBytes: cfg.CacheBytes}) },
		func() ftl.Translator { return cdftl.New(cdftl.Config{CacheBytes: cfg.CacheBytes}) },
		func() ftl.Translator { return zftl.New(zftl.Config{CacheBytes: cfg.CacheBytes}) },
		func() ftl.Translator { return optimal.New(cfg.LogicalPages()) },
	}
}

func newTPOpsDevice(t *testing.T, cfg ftl.Config, tr ftl.Translator, format bool) *ftl.Device {
	t.Helper()
	d, err := ftl.NewDevice(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if format {
		if err := d.Format(); err != nil {
			t.Fatal(err)
		}
	}
	if w, ok := tr.(ftl.Warmer); ok {
		w.Warm(d.Persisted)
	}
	return d
}

// randomHostOp draws one request of the five-way op model: mostly small
// writes (a fifth of them FUA), reads, trims of up to two translation pages'
// worth of LPNs, and flushes.
func randomHostOp(rng *rand.Rand, pages, arrival int64) trace.Request {
	span := func(maxLen int64) (off, n int64) {
		off = rng.Int63n(pages)
		n = 1 + rng.Int63n(maxLen)
		if off+n > pages {
			n = pages - off
		}
		return off * tpopsPageSize, n * tpopsPageSize
	}
	req := trace.Request{Arrival: arrival}
	switch r := rng.Intn(100); {
	case r < 50:
		req.Op = trace.OpWrite
		if rng.Intn(5) == 0 {
			req.Op = trace.OpWriteFUA
		}
		req.Offset, req.Length = span(4)
	case r < 65:
		req.Op = trace.OpRead
		req.Offset, req.Length = span(4)
	case r < 90:
		req.Op = trace.OpTrim
		req.Offset, req.Length = span(256)
	default:
		req.Op = trace.OpFlush
	}
	return req
}

// TestCountedFoldMatchesFullScan is the differential property test of the
// counted fold. Two devices serve the same seeded write/FUA/read/trim/flush
// sequence (GC included: the sequences overwrite the device several times
// over); one skips foldTPPersist on unmapped[v] == 0, the other was turned
// into the pre-count device that scans every page on every fold
// (ScanEveryFold). Their persisted views must agree on every LPN after every
// request, for all six translators, on a formatted device, on one whose last
// translation page is partial, and on an unformatted one where every slot
// starts unmapped and every fold has work to do.
func TestCountedFoldMatchesFullScan(t *testing.T) {
	if ftl.SanitizerEnabled {
		t.Skip("the reference device fails the per-op unmapped[] recount by construction")
	}
	shapes := []struct {
		name   string
		pages  int64
		format bool
	}{
		{"formatted", 16 * 128, true},
		{"partial-last-page", 16*128 - 37, true},
		{"unformatted", 16 * 128, false},
		{"unformatted-partial", 16*128 - 37, false},
	}
	var collections, transCollections, trimmed int64
	for _, shape := range shapes {
		cfg := tpopsConfig(shape.pages)
		for _, mk := range sixTranslators(cfg) {
			for seed := int64(1); seed <= 2; seed++ {
				trDev, trRef := mk(), mk()
				dev := newTPOpsDevice(t, cfg, trDev, shape.format)
				ref := newTPOpsDevice(t, cfg, trRef, shape.format)
				ref.ScanEveryFold()
				rng := rand.New(rand.NewSource(seed))
				for op := 0; op < 4000; op++ {
					req := randomHostOp(rng, shape.pages, int64(op)*1000)
					if _, err := dev.Serve(req); err != nil {
						t.Fatalf("%s/%s seed %d op %d (%v): %v", shape.name, trDev.Name(), seed, op, req.Op, err)
					}
					if _, err := ref.Serve(req); err != nil {
						t.Fatalf("%s/%s seed %d op %d (%v), reference: %v", shape.name, trDev.Name(), seed, op, req.Op, err)
					}
					for lpn := ftl.LPN(0); lpn < ftl.LPN(shape.pages); lpn++ {
						if got, want := dev.Persisted(lpn), ref.Persisted(lpn); got != want {
							t.Fatalf("%s/%s seed %d op %d (%v): Persisted(%d) = %d, full-scan fold has %d",
								shape.name, trDev.Name(), seed, op, req.Op, lpn, got, want)
						}
					}
				}
				var dirty map[ftl.LPN]flash.PPN
				if dc, ok := trDev.(interface{ DirtyCached() map[ftl.LPN]flash.PPN }); ok {
					dirty = dc.DirtyCached()
				}
				if err := dev.CheckConsistency(dirty); err != nil {
					t.Fatalf("%s/%s seed %d: %v", shape.name, trDev.Name(), seed, err)
				}
				if err := dev.VerifyRecoverable(); err != nil {
					t.Fatalf("%s/%s seed %d: %v", shape.name, trDev.Name(), seed, err)
				}
				m := dev.Metrics()
				collections += m.GCDataCollections
				transCollections += m.GCTransCollections
				trimmed += m.TrimmedPages
			}
		}
	}
	if collections == 0 || transCollections == 0 || trimmed == 0 {
		t.Fatalf("sequences too tame: %d data collections, %d translation collections, %d trimmed pages",
			collections, transCollections, trimmed)
	}
}

// TestCheckConsistencyRecountsUnmapped pins that CheckConsistency recounts
// unmapped[v] from the persisted view: a device whose counts were moved
// (here by the reference-device hook) must fail it, while an untouched one —
// formatted or not, with a partial last page — passes.
func TestCheckConsistencyRecountsUnmapped(t *testing.T) {
	for _, format := range []bool{true, false} {
		cfg := tpopsConfig(3*128 + 5)
		d := newTPOpsDevice(t, cfg, optimal.New(cfg.LogicalPages()), format)
		if err := d.CheckConsistency(nil); err != nil {
			t.Fatalf("format=%v: fresh device: %v", format, err)
		}
		d.ScanEveryFold()
		if err := d.CheckConsistency(nil); err == nil {
			t.Fatalf("format=%v: CheckConsistency accepted overstated unmapped[] counts", format)
		}
	}
}

// TestTrimFollowsPagesItsGCMoves makes the collection a trim runs before its
// translation-page rewrite migrate the very pages it discards: the device
// holds their mapping between Discard and the commit, so it must follow
// them to their new pages and invalidate those, leaving no valid copy.
// Formatting lays LPN i at block i/16; overwriting LPNs 0–11 leaves block 0
// the best victim, and rounds of one overwrite per later block run the
// device down to its GC threshold without making any of those a better one.
// The trim then discards LPNs 12–15, block 0's valid pages. The cache holds
// every entry, so no writeback makes a translation block the victim.
func TestTrimFollowsPagesItsGCMoves(t *testing.T) {
	const ppb, kept = 16, 4
	cfg := tpopsConfig(64 * ppb)
	cfg.CacheBytes = 1 << 20
	for _, mk := range sixTranslators(cfg) {
		tr := mk()
		d := newTPOpsDevice(t, cfg, tr, true)
		write := func(lpn int64) {
			t.Helper()
			if _, err := d.Serve(trace.Request{Op: trace.OpWrite, Offset: lpn * tpopsPageSize, Length: tpopsPageSize}); err != nil {
				t.Fatalf("%s: write %d: %v", tr.Name(), lpn, err)
			}
		}
		for lpn := int64(0); lpn < ppb-kept; lpn++ {
			write(lpn)
		}
		for lpn := int64(ppb); !d.GCDue(); lpn += ppb {
			if lpn >= cfg.LogicalPages() {
				lpn = lpn%ppb + 1
				if lpn == ppb-kept {
					t.Fatalf("%s: no GC threshold before block 0 stops being the best victim", tr.Name())
				}
				continue
			}
			write(lpn)
		}
		before := d.Metrics()
		trim := trace.Request{Op: trace.OpTrim, Offset: (ppb - kept) * tpopsPageSize, Length: kept * tpopsPageSize}
		if _, err := d.Serve(trim); err != nil {
			t.Fatalf("%s: trim: %v", tr.Name(), err)
		}
		m := d.Metrics()
		if m.GCDataCollections == before.GCDataCollections || m.TrimmedPages-before.TrimmedPages != kept {
			t.Fatalf("%s: the trim ran %d collections and trimmed %d pages", tr.Name(),
				m.GCDataCollections-before.GCDataCollections, m.TrimmedPages-before.TrimmedPages)
		}
		chip := d.Chip()
		for p := flash.PPN(0); int64(p) < chip.Config().TotalPages(); p++ {
			if mt := chip.MetaOf(p); chip.State(p) == flash.PageValid && mt.Kind == flash.KindData && mt.Tag >= ppb-kept && mt.Tag < ppb {
				t.Fatalf("%s: trimmed lpn %d still has valid page %d", tr.Name(), mt.Tag, p)
			}
		}
		if err := d.CheckConsistency(nil); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		if err := d.VerifyRecoverable(); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
	}
}

// TestCheckConsistencyAllocatesNothing pins what lets a run check its device
// after the replay at no cost to its memory peak: without a dirty set,
// CheckConsistency allocates nothing, on an aged device with trimmed pages.
func TestCheckConsistencyAllocatesNothing(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	cfg := tpopsConfig(4 * 128)
	d := newTPOpsDevice(t, cfg, core.New(core.DefaultConfig(cfg.CacheBytes)), true)
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 2000; op++ {
		if _, err := d.Serve(randomHostOp(rng, cfg.LogicalPages(), int64(op)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	if m := d.Metrics(); m.GCDataCollections == 0 || m.TrimmedPages == 0 {
		t.Fatalf("%d collections, %d trimmed pages: the device is not aged", m.GCDataCollections, m.TrimmedPages)
	}
	var err error
	if n := testing.AllocsPerRun(3, func() { err = d.CheckConsistency(nil) }); n != 0 || err != nil {
		t.Fatalf("CheckConsistency(nil): %v allocations, error %v", n, err)
	}
}

// TestCheckConsistencyDirtySetErrors doctors the dirty set a real device's
// translator reports and expects each of the two dirty-set checks to fire: an
// entry that disagrees with the live mapping (the lowest such LPN is the one
// named, whatever order the map yields), and a page whose live mapping left
// its persisted mapping behind with no dirty entry to account for it.
func TestCheckConsistencyDirtySetErrors(t *testing.T) {
	cfg := tpopsConfig(4 * 128)
	tr := dftl.New(dftl.Config{CacheBytes: cfg.CacheBytes})
	d := newTPOpsDevice(t, cfg, tr, true)
	for _, lpn := range []int64{300, 17, 140, 450} {
		if _, err := d.Serve(trace.Request{Op: trace.OpWrite, Offset: lpn * tpopsPageSize, Length: tpopsPageSize}); err != nil {
			t.Fatal(err)
		}
	}
	dirty := tr.DirtyCached()
	if err := d.CheckConsistency(dirty); err != nil {
		t.Fatalf("undoctored: %v", err)
	}
	for _, lpn := range []ftl.LPN{17, 140, 300} {
		if _, ok := dirty[lpn]; !ok {
			t.Fatalf("lpn %d is not dirty in the cache; the doctoring below needs it", lpn)
		}
	}

	wrong := maps.Clone(dirty)
	wrong[300]++
	wrong[140]++
	err := d.CheckConsistency(wrong)
	if want := fmt.Sprintf("dirty cache entry for lpn 140 holds %d, live mapping %d", wrong[140], dirty[140]); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("two dirty entries off the live mapping: got %v, want %q", err, want)
	}

	missing := maps.Clone(dirty)
	delete(missing, 17)
	err = d.CheckConsistency(missing)
	if want := fmt.Sprintf("lpn 17: live mapping %d != persist %d with no dirty cache entry", dirty[17], d.Persisted(17)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("dirty entry withheld: got %v, want %q", err, want)
	}
}

// scribbler is a translator that breaks the Env contract: it writes through
// the slice ReadTP returned.
type scribbler struct {
	*optimal.FTL
	scribble flash.PPN
}

func (s *scribbler) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	vals, err := env.ReadTP(ftl.VTPNOf(lpn, env.EntriesPerTP()))
	if err != nil {
		return flash.InvalidPPN, err
	}
	vals[ftl.OffOf(lpn, env.EntriesPerTP())] = s.scribble
	return s.FTL.Translate(env, lpn)
}

// TestWriteThroughReadTPViewIsCaught pins what makes the zero-copy ReadTP
// safe to hand out: the slice is device state, and a translator that writes
// through it is caught by CheckConsistency (per operation under ftlsan) —
// a wrong mapping by the live/persist check, an unmapping by the recount.
func TestWriteThroughReadTPViewIsCaught(t *testing.T) {
	for _, scribble := range []flash.PPN{7, flash.InvalidPPN} {
		cfg := tpopsConfig(4 * 128)
		tr := &scribbler{FTL: optimal.New(cfg.LogicalPages()), scribble: scribble}
		d := newTPOpsDevice(t, cfg, tr, true)
		if d.Persisted(200) == scribble {
			t.Fatalf("scribble value %d is lpn 200's mapping; pick another", scribble)
		}
		_, err := d.Serve(trace.Request{Op: trace.OpRead, Offset: 200 * tpopsPageSize, Length: tpopsPageSize})
		if err == nil {
			err = d.CheckConsistency(map[ftl.LPN]flash.PPN{})
		}
		if err == nil {
			t.Fatalf("scribbling %d over a ReadTP view went unnoticed", scribble)
		}
	}
}

// TestReadTPViewAndPad checks the two shapes ReadTP returns: a full page is
// a view of exactly entriesPerTP slots whose capacity stops at the page
// boundary (an append cannot run into the next page), the partial last page
// a copy padded with InvalidPPN.
func TestReadTPViewAndPad(t *testing.T) {
	const tail = 5
	cfg := tpopsConfig(2*128 + tail)
	d := newTPOpsDevice(t, cfg, optimal.New(cfg.LogicalPages()), true)
	full, err := d.ReadTP(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 128 || cap(full) != 128 {
		t.Fatalf("full page: len %d cap %d, want 128/128", len(full), cap(full))
	}
	for off, ppn := range full {
		if want := d.Persisted(ftl.LPNAt(1, off, 128)); ppn != want {
			t.Fatalf("full page slot %d = %d, want %d", off, ppn, want)
		}
	}
	last, err := d.ReadTP(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(last) != 128 {
		t.Fatalf("partial page: len %d, want 128", len(last))
	}
	for off, ppn := range last {
		want := flash.InvalidPPN
		if off < tail {
			want = d.Persisted(ftl.LPNAt(2, off, 128))
		}
		if ppn != want {
			t.Fatalf("partial page slot %d = %d, want %d", off, ppn, want)
		}
	}
}

// TestSteadyStateCollectionAllocates0 pins that garbage collection — victim
// selection, the migration list handed to the translator, heap re-keying on
// every invalidation — allocates nothing once the device is in GC steady
// state. Before the moves scratch and the non-boxing victim heap, every
// collected data block cost a grown []GCMove plus two boxed heap items.
//
// AllocsPerRun counts the whole process's mallocs, so one stray runtime
// allocation during a single long run failed the guard once. It averages
// over ten runs of 200 writes instead, rounding down: fewer than ten stray
// allocations read as 0, while an allocation per collection — a run makes
// 12 or more (the count is checked below) — still reads as 1 or more.
func TestSteadyStateCollectionAllocates0(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	cfg := tpopsConfig(16 * 128)
	d := newTPOpsDevice(t, cfg, optimal.New(cfg.LogicalPages()), true)
	rng := rand.New(rand.NewSource(3))
	arrival := int64(0)
	write := func() {
		page := rng.Int63n(cfg.LogicalPages())
		req := trace.Request{Arrival: arrival, Op: trace.OpWrite, Offset: page * tpopsPageSize, Length: tpopsPageSize}
		if _, err := d.Serve(req); err != nil {
			t.Fatal(err)
		}
		arrival += 1000
	}
	for i := 0; i < 3*int(cfg.LogicalPages()); i++ {
		write() // into GC steady state, free lists and heap grown to size
	}
	before := d.Metrics().GCDataCollections
	const runs, perRun = 10, 200
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perRun; i++ {
			write()
		}
	})
	// AllocsPerRun calls the function once more to warm up.
	const writes = (runs + 1) * perRun
	collected := d.Metrics().GCDataCollections - before
	if collected < writes/int64(cfg.PagesPerBlock) {
		t.Fatalf("only %d data blocks collected over %d writes; the guard did not exercise GC", collected, writes)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per run of %d writes (%d collections over %d writes), want 0", allocs, perRun, collected, writes)
	}
}

// TestPerPageSizesPinned keeps the per-page layout from growing back
// unnoticed: a PPN is the paper's 4 bytes (persist, the GTD and the ReadTP
// view are arrays of them) and an entry of collect's move scratch is
// 16 bytes, four to a cache line. Two records of other packages are pinned
// where they live: flash.TestOOBRecordIs8Bytes and
// core.TestEntryNodeIsHalfACacheLineWithNoPointers.
func TestPerPageSizesPinned(t *testing.T) {
	if got := unsafe.Sizeof(flash.PPN(0)); got != 4 {
		t.Errorf("flash.PPN is %d bytes, want 4", got)
	}
	if got := ftl.GCMoveBytes; got != 16 {
		t.Errorf("a GC move is %d bytes, want 16", got)
	}
}

// TestBytesPerPage holds everything a 1 GiB default device allocates at
// construction to the per-page layout, so that a widened field fails a test
// and not a benchmark: 4 bytes per logical page (the persisted view, a PPN;
// the device keeps no second mapping table), 9 per physical page (the chip's
// state/kind byte and 8-byte out-of-band record), and per block what the
// chip's block record and the block manager's tables and free lists take —
// 91 bytes today, allocator rounding, the Device record and its one
// translation page of trim scratch included, 96 allowed. That allowance is
// a tenth of a byte per logical page above what is used; one more byte in
// any per-page array is ten times that.
func TestBytesPerPage(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	cfg := ftl.DefaultConfig(1 << 30)
	tr := core.New(core.DefaultConfig(cfg.CacheBytes))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := ftl.NewDevice(cfg, tr)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	fc := d.Chip().Config()
	logical, physical, blocks := d.Config().LogicalPages(), fc.TotalPages(), int64(fc.NumBlocks)
	got := int64(after.TotalAlloc - before.TotalAlloc)
	limit := 4*logical + 9*physical + 96*blocks
	t.Logf("%d bytes for %d logical + %d physical pages in %d blocks: %.2f B per logical page (limit %.2f; per-page arrays alone %.2f)",
		got, logical, physical, blocks, float64(got)/float64(logical), float64(limit)/float64(logical),
		float64(4*logical+9*physical)/float64(logical))
	if got > limit {
		t.Fatalf("NewDevice allocated %d bytes, %.2f per logical page; the layout allows %d (%.2f)",
			got, float64(got)/float64(logical), limit, float64(limit)/float64(logical))
	}
}
