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
			for _, e := range dirtySetOf(tr) {
				perPage[ftl.VTPNOf(e.LPN, d.EntriesPerTP())]++
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

// TestDirtyCachedIsAscending pins the order contract Device.CheckConsistency
// merge-walks: after every request of a random read/write/trim/flush
// sequence, each scheme that lists its dirty entries lists them in strictly
// ascending LPN order, so with no LPN twice, and the device agrees with the
// list. The 2 KiB cache over a 16 MiB device keeps every eviction path,
// S-FTL's dirty buffer and ZFTL's zone switches busy.
func TestDirtyCachedIsAscending(t *testing.T) {
	cfg := ftl.DefaultConfig(16 << 20)
	cfg.CacheBytes = 2 << 10
	rng := rand.New(rand.NewSource(11))
	ops := []trace.Op{trace.OpRead, trace.OpRead, trace.OpWrite, trace.OpWrite, trace.OpWrite, trace.OpTrim, trace.OpFlush}
	reqs := make([]trace.Request, 3000)
	for i := range reqs {
		lpn, n := rng.Int63n(cfg.LogicalPages()-8), 1+rng.Int63n(8)
		if i%3 != 0 {
			lpn %= 3000 // two requests in three stay on the first three translation pages
		}
		r := trace.Request{Arrival: int64(i) * 1e5, Op: ops[rng.Intn(len(ops))], Offset: lpn * 4096, Length: n * 4096}
		if r.Op == trace.OpFlush {
			r.Offset, r.Length = 0, 0
		}
		reqs[i] = r
	}
	for _, s := range []Scheme{SchemeTPFTL, SchemeDFTL, SchemeSFTL, SchemeCDFTL, SchemeZFTL, SchemeOptimal} {
		t.Run(string(s), func(t *testing.T) {
			d, tr, err := newDevice(s, cfg, nil, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			lister, ok := tr.(ftl.DirtyLister)
			if !ok {
				if s != SchemeOptimal {
					t.Fatalf("%s lists no dirty entries", s)
				}
				return // the optimal FTL holds its whole table in RAM: nothing is dirty
			}
			listed := 0
			for i, r := range reqs {
				if _, err := d.Serve(r); err != nil {
					t.Fatalf("request %d %+v: %v", i, r, err)
				}
				dirty := lister.DirtyCached()
				if dirty == nil {
					t.Fatalf("request %d: DirtyCached returned nil, which CheckConsistency reads as no set given", i)
				}
				for j := 1; j < len(dirty); j++ {
					if dirty[j].LPN <= dirty[j-1].LPN {
						t.Fatalf("request %d: DirtyCached lists lpn %d after lpn %d", i, dirty[j].LPN, dirty[j-1].LPN)
					}
				}
				if i%100 == 0 {
					if err := d.CheckConsistency(dirty); err != nil {
						t.Fatalf("request %d: %v", i, err)
					}
				}
				listed = max(listed, len(dirty))
			}
			if listed < 2 {
				t.Fatalf("at most %d dirty entries at once: the sequence never exercised the order", listed)
			}
		})
	}
}
