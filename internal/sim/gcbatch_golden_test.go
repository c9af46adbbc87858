package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/workload"
)

// TestGCBatchGolden pins the GC-time map updates of every demand-based scheme
// to the last counter: per case, the FNV-64a of the rendered device Metrics
// and the scheduler's EventHash, which folds every flash operation in issue
// order — so the order of the translation-page writes a collection issues is
// pinned along with their number.
//
//   - fin1: 10 000 requests of the Financial1 profile on a formatted 16 MiB
//     device with a 1 KiB mapping cache. The device starts full, so nearly
//     every write forces a data collection whose moved pages are mostly
//     uncached (GC misses, one translation-page update per page touched) and
//     sometimes cached (GC hits, refreshed in RAM); the translation pages
//     those updates write fill translation blocks, which are collected too.
//     It runs on 1 channel × 1 die at queue depth 1 and on 4 × 2 at 8.
//   - fsync: 4 000 requests of the database-fsync profile, whose flush
//     barrier every eighth request drives the device's flush writeback of
//     each scheme's dirty pages between collections.
//
// Regenerate the pins only for an intended behaviour change, and say so in
// the commit.
func TestGCBatchGolden(t *testing.T) {
	const space = 16 << 20
	fin1, err := workload.Generate(workload.Financial1().Scale(space), 10_000, 21)
	if err != nil {
		t.Fatal(err)
	}
	fsync, err := workload.Generate(workload.DatabaseFsync().Scale(space), 4_000, 22)
	if err != nil {
		t.Fatal(err)
	}

	type pin struct{ metrics, events uint64 }
	golden := map[string]pin{
		"fin1/1x1qd1/TPFTL":    {0x1d22f95121a6a5f6, 0xac9df5005c1f21b1},
		"fin1/1x1qd1/DFTL":     {0xee9e817f6e5e00d3, 0x2d4e78837e9e4656},
		"fin1/1x1qd1/S-FTL":    {0xe9301fd48db009f6, 0x9235153bca145bff},
		"fin1/1x1qd1/CDFTL":    {0xa2502454576fc203, 0x4909c7c25ec21b5a},
		"fin1/1x1qd1/ZFTL":     {0x52d29d3ba01062c4, 0xc9903af5c0435cc9},
		"fin1/1x1qd1/Optimal":  {0xc14c0746f85b90a3, 0x487b8ad22c822ab8},
		"fin1/4x2qd8/TPFTL":    {0xb6553685a0f9b1bf, 0x522a3da67800d483},
		"fin1/4x2qd8/DFTL":     {0xa6cada655032fab1, 0xabfcc9d8261a39ac},
		"fin1/4x2qd8/S-FTL":    {0x25503c63c6e4bfb6, 0x5eb4f5915eed8279},
		"fin1/4x2qd8/CDFTL":    {0xe9bb9dd274cc1b57, 0x346d9205066528b8},
		"fin1/4x2qd8/ZFTL":     {0xdecbde7b1246bd53, 0x622cfeb58affee72},
		"fin1/4x2qd8/Optimal":  {0x8607367e115e2a1b, 0x8f6e038f31254559},
		"fsync/1x1qd1/TPFTL":   {0xd3f0c588274e3c2c, 0xccec2e7748e5bb85},
		"fsync/1x1qd1/DFTL":    {0x83988f1c6f71c7ed, 0xbcd0b56bc9715d1},
		"fsync/1x1qd1/S-FTL":   {0x32151fd5e7f38b33, 0x466b03a003df4722},
		"fsync/1x1qd1/CDFTL":   {0xcf444534f18f1f75, 0x5c5c747d6f7badc5},
		"fsync/1x1qd1/ZFTL":    {0x1fd930fd853ab63a, 0x89a90babb7869c02},
		"fsync/1x1qd1/Optimal": {0x822577c7a225027f, 0xf9a54710321f66f7},
	}
	schemes := []Scheme{SchemeTPFTL, SchemeDFTL, SchemeSFTL, SchemeCDFTL, SchemeZFTL, SchemeOptimal}
	for _, tc := range []struct {
		name             string
		trace            string
		channels, dies   int
		queueDepth       int
		flushes, gcTrans bool
	}{
		{"fin1/1x1qd1", "fin1", 1, 1, 1, false, true},
		{"fin1/4x2qd8", "fin1", 4, 2, 8, false, true},
		{"fsync/1x1qd1", "fsync", 1, 1, 1, true, false},
	} {
		reqs := fin1
		if tc.trace == "fsync" {
			reqs = fsync
		}
		for _, s := range schemes {
			key := tc.name + "/" + string(s)
			cfg := ftl.DefaultConfig(space)
			cfg.CacheBytes = 1 << 10
			cfg.Channels, cfg.Dies = tc.channels, tc.dies
			d, tr, err := newDevice(s, cfg, nil, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			admitAll(t, d, tc.queueDepth, reqs)
			if dc, ok := tr.(interface{ DirtyCached() map[ftl.LPN]flash.PPN }); ok {
				if err := d.CheckConsistency(dc.DirtyCached()); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
			}

			m := d.Metrics()
			misses := m.GCMapUpdates - m.GCMapHits
			if m.GCDataCollections == 0 || m.GCMapHits == 0 {
				t.Errorf("%s: %d data collections, %d GC hits: the case does not exercise GC-time refreshes",
					key, m.GCDataCollections, m.GCMapHits)
			}
			if s == SchemeOptimal {
				if misses != 0 {
					t.Errorf("%s: %d GC misses on a fully resident table", key, misses)
				}
			} else {
				if misses == 0 {
					t.Errorf("%s: no GC misses: the case does not exercise the batched translation-page updates", key)
				}
				if tc.gcTrans && m.GCTransCollections == 0 {
					t.Errorf("%s: no translation-block collection", key)
				}
			}
			if tc.flushes && m.FlushRequests == 0 {
				t.Errorf("%s: no flush barrier served", key)
			}

			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", m)
			got := pin{h.Sum64(), d.Scheduler().EventHash()}
			if want := golden[key]; got != want {
				t.Errorf("%q: {%#x, %#x}, want {%#x, %#x}", key, got.metrics, got.events, want.metrics, want.events)
			}
		}
	}
}
