package core

import (
	"math/rand"
	"testing"
	"unsafe"
)

// The allocation guards pin the tentpole property of the performance PR: the
// steady-state service path allocates nothing. They are skipped under the
// race detector and the ftlsan build (allocguard_*.go), whose instrumentation
// allocates behind every operation.

// TestCacheHitReadAllocates0 proves the hit path — lookup, two-level LRU
// touch, scheduler issue, metrics — performs zero heap allocations per read.
func TestCacheHitReadAllocates0(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	d, _ := newTPFTLDevice(t, DefaultConfig(0), 1<<20)
	if _, err := d.Serve(wr(0, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Serve(rd(1, 5)); err != nil { // warm: entry now cached
		t.Fatal(err)
	}
	arrival := int64(2)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.Serve(rd(arrival, 5)); err != nil {
			t.Fatal(err)
		}
		arrival++
	})
	if allocs != 0 {
		t.Fatalf("cache-hit read allocates %v times per op, want 0", allocs)
	}
	m := d.Metrics()
	if m.Hits == 0 {
		t.Fatal("no hits recorded; the guard did not exercise the hit path")
	}
}

// TestMissEvictCycleAllocBound pins the other steady state: a read that
// misses, evicts from a full cache and installs from a recycled slab node.
// After warm-up the slabs and scratch buffers absorb everything the old code
// allocated per miss (entry/TP nodes, the byOff map, the dedup map, update
// slices); the remaining budget is a small pinned bound that covers device-
// side incidentals (GC bookkeeping) rather than per-miss cache garbage.
func TestMissEvictCycleAllocBound(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	// Budget of ~64 entries over a 4096-page device: nearly every random
	// read misses and evicts.
	d, tr := newTPFTLDevice(t, DefaultConfig(0), 512)
	rng := rand.New(rand.NewSource(11))
	arrival := int64(0)
	serveRandom := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := d.Serve(rd(arrival, rng.Int63n(4096))); err != nil {
				t.Fatal(err)
			}
			arrival++
		}
	}
	serveRandom(2_000) // warm the slabs and scratch buffers
	const reads = 500
	allocs := testing.AllocsPerRun(1, func() { serveRandom(reads) })
	perOp := allocs / reads
	const bound = 0.5
	if perOp > bound {
		t.Fatalf("miss+evict cycle allocates %.3f times per op, want <= %v", perOp, bound)
	}
	m := d.Metrics()
	if m.Hits*2 > m.Lookups {
		t.Fatalf("hit ratio %.2f too high; the guard did not exercise the miss path", float64(m.Hits)/float64(m.Lookups))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSlabRecycleStress churns the cache through eviction/reinstall cycles
// far larger than the budget and audits after every round that (a) recycled
// nodes are fully reset (CheckInvariants walks both slab free lists and the
// live structure) and (b) the mapping still agrees with the on-flash truth,
// so no stale dirty bit or offset survived a recycle.
func TestSlabRecycleStress(t *testing.T) {
	d, tr := newTPFTLDevice(t, DefaultConfig(0), 768)
	rng := rand.New(rand.NewSource(23))
	arrival := int64(0)
	for round := 0; round < 40; round++ {
		// Mixed phase: random writes dirty entries, random reads force
		// clean-first evictions, sequential spans trigger prefetch installs.
		for i := 0; i < 150; i++ {
			p := rng.Int63n(2048)
			var err error
			switch rng.Intn(3) {
			case 0:
				_, err = d.Serve(wr(arrival, p))
			case 1:
				_, err = d.Serve(rd(arrival, p))
			default:
				_, err = d.Serve(rdSpan(arrival, p%2040, 1+rng.Int63n(8)))
			}
			if err != nil {
				t.Fatal(err)
			}
			arrival++
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if len(tr.eslab.free) == 0 && len(tr.tslab.free) == 0 {
		t.Fatal("stress never populated a slab free list; recycling untested")
	}
}

// TestSlabReusesNodes pins the recycling itself: after churn far beyond the
// cache budget, the slabs must have stopped growing — every new install is
// served from the free lists, not from fresh chunks.
func TestSlabReusesNodes(t *testing.T) {
	d, tr := newTPFTLDevice(t, DefaultConfig(0), 512)
	rng := rand.New(rand.NewSource(7))
	arrival := int64(0)
	churn := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := d.Serve(rd(arrival, rng.Int63n(4096))); err != nil {
				t.Fatal(err)
			}
			arrival++
		}
	}
	churn(1_000)
	// Total slab population = free + live; it only changes when a fresh
	// chunk is allocated, so steady-state churn must keep it constant.
	ePop := len(tr.eslab.free) + tr.entries
	tPop := len(tr.tslab.free) + tr.pages.Len()
	churn(5_000)
	if got := len(tr.eslab.free) + tr.entries; got != ePop {
		t.Fatalf("entry slab grew during steady-state churn: population %d -> %d", ePop, got)
	}
	if got := len(tr.tslab.free) + tr.pages.Len(); got != tPop {
		t.Fatalf("tp slab grew during steady-state churn: population %d -> %d", tPop, got)
	}
	t.Logf("steady state: %d entry nodes, %d tp nodes allocated in total", ePop, tPop)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEntryNodeFitsCacheLine pins the entry node's size next to the
// allocation guards: with a 4-byte PPN a node is one 64-byte line, so a walk
// over a TP node's entries touches one line per entry.
func TestEntryNodeFitsCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(entryNode{}); got > 64 {
		t.Fatalf("entryNode is %d bytes, want at most 64", got)
	}
}
