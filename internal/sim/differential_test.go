package sim

import (
	"testing"
	"time"

	"repro/internal/ftl"
	"repro/internal/ftl/blockftl"
	"repro/internal/ftl/fast"
	"repro/internal/ftl/hybrid"
	"repro/internal/trace"
	"repro/internal/workload"
)

// serveEach serves reqs in order on one of the standalone devices.
func serveEach(t *testing.T, d interface {
	Serve(trace.Request) (time.Duration, error)
}, reqs []trace.Request) {
	t.Helper()
	for i := range reqs {
		if _, err := d.Serve(reqs[i]); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestDifferentialAllSchemes drives every page-level scheme — plus the
// block-level and hybrid devices — through an identical request stream.
// Each device verifies every translated read against its own ground truth,
// so surviving the stream is itself the correctness statement; on top of
// that, user-visible accounting (page accesses, unmapped reads) must agree
// across all mapping granularities, and the mapping-table RAM ordering of
// the §2.1 taxonomy must hold.
func TestDifferentialAllSchemes(t *testing.T) {
	p := workload.Financial1().Scale(16 << 20)
	reqs, err := workload.Generate(p, 6_000, 13)
	if err != nil {
		t.Fatal(err)
	}

	type summary struct {
		pageReads, pageWrites, unmapped int64
	}
	results := map[string]summary{}

	for _, s := range []Scheme{SchemeDFTL, SchemeTPFTL, SchemeSFTL, SchemeCDFTL, SchemeZFTL, SchemeOptimal} {
		r, err := Run(Options{Scheme: s, Profile: p, Trace: reqs})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		results[string(s)] = summary{r.M.PageReads, r.M.PageWrites, r.M.UnmappedReads}
	}

	devCfg := ftl.Config{LogicalBytes: 16 << 20, PageSize: 4096, OverProvision: 0.15}
	bd, err := blockftl.New(devCfg)
	if err != nil {
		t.Fatal(err)
	}
	serveEach(t, bd, reqs)
	if err := bd.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	bm := bd.Metrics()
	results["block"] = summary{bm.PageReads, bm.PageWrites, bm.UnmappedReads}

	hd, err := hybrid.New(hybrid.Config{Device: devCfg})
	if err != nil {
		t.Fatal(err)
	}
	serveEach(t, hd, reqs)
	if err := hd.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	hm := hd.Metrics()
	results["hybrid"] = summary{hm.PageReads, hm.PageWrites, hm.UnmappedReads}

	fd, err := fast.New(fast.Config{Device: devCfg})
	if err != nil {
		t.Fatal(err)
	}
	serveEach(t, fd, reqs)
	if err := fd.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	fm := fd.Metrics()
	results["fast"] = summary{fm.PageReads, fm.PageWrites, fm.UnmappedReads}

	// All devices must agree on the user-visible request decomposition.
	// Unmapped-read counts may differ between the page-level devices
	// (which are formatted: every page mapped) and the raw block/hybrid
	// devices (unformatted), so compare those two groups separately.
	ref := results[string(SchemeDFTL)]
	for name, got := range results {
		if got.pageReads != ref.pageReads || got.pageWrites != ref.pageWrites {
			t.Errorf("%s: page accesses %d/%d, want %d/%d",
				name, got.pageReads, got.pageWrites, ref.pageReads, ref.pageWrites)
		}
	}
	for _, s := range []string{"TPFTL", "S-FTL", "CDFTL", "ZFTL", "Optimal"} {
		if results[s].unmapped != ref.unmapped {
			t.Errorf("%s: unmapped reads %d, want %d", s, results[s].unmapped, ref.unmapped)
		}
	}
	if results["block"].unmapped != results["hybrid"].unmapped ||
		results["fast"].unmapped != results["hybrid"].unmapped {
		t.Errorf("block/hybrid/fast unmapped reads diverge: %d vs %d vs %d",
			results["block"].unmapped, results["hybrid"].unmapped, results["fast"].unmapped)
	}
}

// TestMappingGranularityTaxonomy checks the §2.1 RAM-vs-performance
// trade-off: block < hybrid < page mapping table sizes, and page-level
// (TPFTL) beats block-level on random-write amplification.
func TestMappingGranularityTaxonomy(t *testing.T) {
	const space = 16 << 20
	devCfg := ftl.Config{LogicalBytes: space, PageSize: 4096, OverProvision: 0.15}

	bd, err := blockftl.New(devCfg)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := hybrid.New(hybrid.Config{Device: devCfg})
	if err != nil {
		t.Fatal(err)
	}
	pageTable := FullTableBytes(space)
	if !(bd.MappingTableBytes() < hd.MappingTableBytes() && hd.MappingTableBytes() < pageTable) {
		t.Fatalf("RAM ordering violated: block %d, hybrid %d, page %d",
			bd.MappingTableBytes(), hd.MappingTableBytes(), pageTable)
	}

	// Random single-page overwrites: the block FTL's merges must amplify
	// writes far beyond the page-level FTL's GC.
	p := workload.Financial1().Scale(space)
	reqs, err := workload.Generate(p, 5_000, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Make every request a single-page write (worst case for merges).
	for i := range reqs {
		reqs[i].Op = trace.OpWrite
		reqs[i].Length = 4096
		reqs[i].Offset = reqs[i].Offset / 4096 * 4096
	}
	serveEach(t, bd, reqs)
	page, err := Run(Options{Scheme: SchemeTPFTL, Profile: p, Trace: reqs, Precondition: 1})
	if err != nil {
		t.Fatal(err)
	}
	bms := bd.Metrics()
	bwa := bms.WriteAmplification()
	pwa := page.M.WriteAmplification()
	if bwa <= pwa {
		t.Fatalf("block WA %.2f not above page-level WA %.2f on random writes", bwa, pwa)
	}
}

// TestZFTLInHarness smoke-tests the ZFTL scheme through the standard
// harness including its consistency check.
func TestZFTLInHarness(t *testing.T) {
	p := workload.Financial1().Scale(16 << 20)
	r, err := Run(Options{Scheme: SchemeZFTL, Profile: p, Requests: 4_000, Seed: 3, Precondition: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.M.Lookups == 0 {
		t.Fatal("no lookups")
	}
}

// TestDifferentialTrimThenRead drives the same write→trim→flush→read
// sequence through all six page-level translators: every trimmed page must
// read back as unmapped (the discard dropped the mapping, including any
// dirty cached entry, without resurrection), every untrimmed page must
// still translate, and the trim/flush accounting must agree exactly across
// schemes.
func TestDifferentialTrimThenRead(t *testing.T) {
	const space = 8 << 20
	const pageBytes = 4096
	const pages = 64
	p := workload.Financial1().Scale(space)

	var reqs []trace.Request
	arrival := int64(0)
	step := func(op trace.Op, page, length int64) {
		arrival += 100_000
		r := trace.Request{Arrival: arrival, Offset: page * pageBytes, Length: length, Op: op}
		if op == trace.OpFlush {
			r.Offset, r.Length = 0, 0
		}
		reqs = append(reqs, r)
	}
	for i := int64(0); i < pages; i++ {
		step(trace.OpWrite, i, pageBytes)
	}
	// Trim every even page; the flush in between forces dirty cached
	// entries through writeback so both the cached and the persisted
	// mapping paths are exercised before the reads.
	for i := int64(0); i < pages; i += 2 {
		step(trace.OpTrim, i, pageBytes)
	}
	step(trace.OpFlush, 0, 0)
	for i := int64(0); i < pages; i++ {
		step(trace.OpRead, i, pageBytes)
	}

	for _, s := range []Scheme{SchemeDFTL, SchemeTPFTL, SchemeSFTL, SchemeCDFTL, SchemeZFTL, SchemeOptimal} {
		r, err := Run(Options{Scheme: s, Profile: p, Trace: reqs})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if r.M.UnmappedReads != pages/2 {
			t.Errorf("%s: %d unmapped reads after trimming %d pages, want %d",
				s, r.M.UnmappedReads, pages/2, pages/2)
		}
		if r.M.TrimRequests != pages/2 || r.M.TrimmedPages != pages/2 {
			t.Errorf("%s: trim accounting %d requests/%d pages, want %d/%d",
				s, r.M.TrimRequests, r.M.TrimmedPages, pages/2, pages/2)
		}
		if r.M.FlushRequests != 1 {
			t.Errorf("%s: %d flush requests, want 1", s, r.M.FlushRequests)
		}
	}
}
