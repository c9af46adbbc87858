package sim

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/ftl"
	"repro/internal/trace"
)

// TestFlushWritesEachDirtyPageOnce checks the device's flush loop against
// every scheme's own account of its dirty pages. Random writes over a
// 64 MiB device with a 4 KiB cache, three in four to its first two
// translation pages and the rest spread over all 16, leave dirty entries on
// most pages; S-FTL parks sparse ones in its dirty buffer and CDFTL leaves
// cold ones outside its cached pages, so both kinds of page are flushed. No
// collection runs inside the flush, so every translation-page operation it
// makes is its own: one write per dirty page, one read per page not held
// whole, and a batch writeback per page of two or more entries.
func TestFlushWritesEachDirtyPageOnce(t *testing.T) {
	cfg := ftl.DefaultConfig(64 << 20)
	cfg.CacheBytes = 4 << 10
	rng := rand.New(rand.NewSource(5))
	reqs := make([]trace.Request, 400)
	for i := range reqs {
		lpn := rng.Int63n(cfg.LogicalPages())
		if i%4 != 0 {
			lpn %= 2048 // three writes in four go to the first two translation pages
		}
		reqs[i] = trace.Request{Arrival: int64(i) * 1e6, Op: trace.OpWrite, Offset: lpn * 4096, Length: 4096}
	}
	for _, s := range []Scheme{SchemeTPFTL, SchemeDFTL, SchemeSFTL, SchemeCDFTL, SchemeZFTL, SchemeOptimal} {
		t.Run(string(s), func(t *testing.T) {
			d, tr, err := newDevice(s, cfg, nil, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reqs {
				if _, err := d.Serve(r); err != nil {
					t.Fatal(err)
				}
			}
			n := (cfg.LogicalPages()/int64(d.EntriesPerTP()) + 63) / 64
			whole, part := make([]uint64, n), make([]uint64, n)
			tr.DirtyPages(whole, true)
			tr.DirtyPages(part, false)
			perPage := map[ftl.VTPN]int{}
			for lpn := range dirtySetOf(tr) {
				perPage[ftl.VTPNOf(lpn, d.EntriesPerTP())]++
			}
			nWhole, nPart, batches := 0, 0, 0
			for v, k := range perPage {
				w, bit := v>>6, uint64(1)<<(v&63)
				switch {
				case whole[w]&bit != 0 && part[w]&bit != 0:
					t.Fatalf("page %d marked both whole and partial", v)
				case whole[w]&bit != 0:
					nWhole++
				case part[w]&bit != 0:
					nPart++
				default:
					t.Fatalf("page %d has %d dirty entries but is not marked", v, k)
				}
				if k >= 2 {
					batches++
				}
			}
			if marked := popcount(whole) + popcount(part); marked != nWhole+nPart {
				t.Fatalf("%d pages marked, %d have dirty entries", marked, nWhole+nPart)
			}
			switch s {
			case SchemeOptimal:
				if nWhole+nPart != 0 {
					t.Fatalf("%d dirty pages on a fully resident table", nWhole+nPart)
				}
			case SchemeSFTL, SchemeCDFTL:
				if nWhole == 0 || nPart == 0 {
					t.Fatalf("%d whole and %d partial dirty pages: the case does not flush both kinds", nWhole, nPart)
				}
			default:
				if nPart == 0 {
					t.Fatal("no dirty page: the case does not flush anything")
				}
			}

			before := d.Metrics()
			if _, err := d.Serve(trace.Request{Arrival: int64(len(reqs)) * 1e6, Op: trace.OpFlush}); err != nil {
				t.Fatal(err)
			}
			m := d.Metrics()
			if m.GCDataCollections != before.GCDataCollections || m.GCTransCollections != before.GCTransCollections {
				t.Fatal("a collection ran inside the flush")
			}
			if got := m.TransWritesAT - before.TransWritesAT; got != int64(nWhole+nPart) {
				t.Errorf("flush wrote %d translation pages, want %d", got, nWhole+nPart)
			}
			if got := m.TransReadsAT - before.TransReadsAT; got != int64(nPart) {
				t.Errorf("flush read %d translation pages, want %d (the partial ones)", got, nPart)
			}
			if got := m.BatchWritebacks - before.BatchWritebacks; got != int64(batches) {
				t.Errorf("flush counted %d batch writebacks, want %d", got, batches)
			}
			clear(whole)
			clear(part)
			tr.DirtyPages(whole, true)
			tr.DirtyPages(part, false)
			if popcount(whole)+popcount(part) != 0 || len(dirtySetOf(tr)) != 0 {
				t.Errorf("dirty pages left after the flush: whole %b, partial %b", whole, part)
			}
		})
	}
}

func popcount(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}
