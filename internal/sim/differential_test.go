package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
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

// TestStandaloneDevicesGolden pins the three §2.1 comparison devices to the
// last counter: per device and trace, the mapping-table size and the FNV-64a
// of the rendered Metrics (a flat value — no pointer, slice or map — so the
// rendering is deterministic). Regenerate only for an intended behaviour
// change, and say so in the commit.
func TestStandaloneDevicesGolden(t *testing.T) {
	const space = 16 << 20
	fin1, err := workload.Generate(workload.Financial1().Scale(space), 6_000, 13)
	if err != nil {
		t.Fatal(err)
	}
	// 5 000 single-page overwrites over a quarter of the device, each
	// followed by a read of a random page of that quarter.
	var overwrites []trace.Request
	rng := rand.New(rand.NewSource(23))
	const foot = space / 4 / 4096
	for i, arrival := 0, int64(0); i < 5_000; i++ {
		for _, op := range []trace.Op{trace.OpWrite, trace.OpRead} {
			arrival += 500_000
			overwrites = append(overwrites, trace.Request{Arrival: arrival, Offset: rng.Int63n(foot) * 4096, Length: 4096, Op: op})
		}
	}

	type device interface {
		Serve(trace.Request) (time.Duration, error)
		Metrics() ftl.Metrics
		MappingTableBytes() int64
		CheckConsistency() error
	}
	devCfg := ftl.Config{LogicalBytes: space, PageSize: 4096, OverProvision: 0.15}
	devices := []struct {
		name  string
		build func() (device, error)
	}{
		{"block", func() (device, error) { return blockftl.New(devCfg) }},
		{"bast", func() (device, error) { return hybrid.New(hybrid.Config{Device: devCfg}) }},
		{"bast-log2", func() (device, error) { return hybrid.New(hybrid.Config{Device: devCfg, LogBlocks: 2}) }},
		{"fast", func() (device, error) { return fast.New(fast.Config{Device: devCfg}) }},
		{"fast-log2", func() (device, error) { return fast.New(fast.Config{Device: devCfg, LogBlocks: 2}) }},
	}
	type pin struct {
		table int64
		hash  uint64
	}
	golden := map[string]pin{
		"block/fin1":          {256, 0xf02f5a36d649419},
		"bast/fin1":           {4352, 0x2b8d4fee1d3fd311},
		"bast-log2/fin1":      {1280, 0x99506aed6ecbc6d5},
		"fast/fin1":           {4352, 0x1caaf48ff9ac4fe},
		"fast-log2/fin1":      {1280, 0xf32b79943fe63858},
		"block/overwrite":     {256, 0x555866a1a6196552},
		"bast/overwrite":      {4352, 0xd481d1bfdc734fae},
		"bast-log2/overwrite": {1280, 0xfce0a69de1802c2c},
		"fast/overwrite":      {4352, 0x628fb1d0a15846a8},
		"fast-log2/overwrite": {1280, 0x3f8540f92ed0e870},
	}
	for _, tr := range []struct {
		name string
		reqs []trace.Request
	}{{"fin1", fin1}, {"overwrite", overwrites}} {
		for _, dv := range devices {
			key := dv.name + "/" + tr.name
			d, err := dv.build()
			if err != nil {
				t.Fatal(err)
			}
			serveEach(t, d, tr.reqs)
			if err := d.CheckConsistency(); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", d.Metrics())
			if got, want := (pin{d.MappingTableBytes(), h.Sum64()}), golden[key]; got != want {
				t.Errorf("%q: {%d, %#x}, want {%d, %#x}", key, got.table, got.hash, want.table, want.hash)
			}
		}
	}
}

// TestStandaloneDevicesHonourLatencies checks that all three comparison
// devices time their flash operations with the configured latencies, not the
// Table 3 defaults: a first one-page write costs one program, a read of it
// one read.
func TestStandaloneDevicesHonourLatencies(t *testing.T) {
	devCfg := ftl.Config{LogicalBytes: 16 << 20, ReadLatency: 7 * time.Microsecond, WriteLatency: 100 * time.Microsecond}
	type device interface {
		Serve(trace.Request) (time.Duration, error)
	}
	for _, dv := range []struct {
		name  string
		build func() (device, error)
	}{
		{"block", func() (device, error) { return blockftl.New(devCfg) }},
		{"bast", func() (device, error) { return hybrid.New(hybrid.Config{Device: devCfg}) }},
		{"fast", func() (device, error) { return fast.New(fast.Config{Device: devCfg}) }},
	} {
		d, err := dv.build()
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range []struct {
			op   trace.Op
			want time.Duration
		}{{trace.OpWrite, devCfg.WriteLatency}, {trace.OpRead, devCfg.ReadLatency}} {
			resp, err := d.Serve(trace.Request{Arrival: int64(i+1) * int64(time.Second), Offset: 4096, Length: 4096, Op: c.op})
			if err != nil {
				t.Fatal(err)
			}
			if resp != c.want {
				t.Errorf("%s: one-page %v took %v, want %v", dv.name, c.op, resp, c.want)
			}
		}
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
