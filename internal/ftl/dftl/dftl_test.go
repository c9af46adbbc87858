package dftl

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ftl"
	"repro/internal/trace"
)

func newDevice(t *testing.T, cacheBytes int64) (*ftl.Device, *FTL) {
	t.Helper()
	tr := New(Config{CacheBytes: cacheBytes})
	d, err := ftl.NewDevice(ftl.Config{
		LogicalBytes:  16 << 20,
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

func rd(arrival, page int64) trace.Request {
	return trace.Request{Arrival: arrival, Offset: page * 4096, Length: 4096, Op: trace.OpRead}
}

func wr(arrival, page int64) trace.Request {
	return trace.Request{Arrival: arrival, Offset: page * 4096, Length: 4096, Op: trace.OpWrite}
}

func TestCapacityClamp(t *testing.T) {
	if got := New(Config{CacheBytes: 1}).Capacity(); got != 4 {
		t.Fatalf("capacity = %d, want clamp 4", got)
	}
	if got := New(Config{CacheBytes: 800}).Capacity(); got != 100 {
		t.Fatalf("capacity = %d, want 100", got)
	}
}

func TestName(t *testing.T) {
	if New(Config{CacheBytes: 64}).Name() != "DFTL" {
		t.Fatal("wrong name")
	}
}

// TestSegmentedLRUPromotion checks the two-segment behaviour: a
// re-referenced entry moves to the protected segment and survives a scan of
// one-touch entries that would evict it under plain LRU.
func TestSegmentedLRUPromotion(t *testing.T) {
	d, _ := newDevice(t, 8*8) // 8 entries, protected segment 4
	arrival := int64(0)
	serve := func(p int64) {
		t.Helper()
		if _, err := d.Serve(rd(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	// Touch page 5 twice: promoted to protected.
	serve(5)
	serve(5)
	// Scan 7 one-touch pages — enough to flush an 8-entry plain LRU.
	for p := int64(100); p < 107; p++ {
		serve(p)
	}
	// Page 5 must still hit.
	before := d.Metrics().Hits
	serve(5)
	if d.Metrics().Hits != before+1 {
		t.Fatal("promoted entry was evicted by a one-touch scan")
	}
}

func TestProtectedSegmentBounded(t *testing.T) {
	d, tr := newDevice(t, 8*8)
	arrival := int64(0)
	// Promote 6 entries (> protCap 4): the protected segment must demote
	// its LRU back to probationary rather than grow unbounded.
	for p := int64(0); p < 6; p++ {
		for k := 0; k < 2; k++ {
			if _, err := d.Serve(rd(arrival, p)); err != nil {
				t.Fatal(err)
			}
			arrival += int64(time.Millisecond)
		}
	}
	if tr.prot.Len() > tr.protCap {
		t.Fatalf("protected segment %d exceeds cap %d", tr.prot.Len(), tr.protCap)
	}
	if tr.Len() != 6 {
		t.Fatalf("entries = %d", tr.Len())
	}
}

func TestGCBatchUpdateSharesTranslationPage(t *testing.T) {
	// All LPNs share translation page 0, so all GC-miss updates of one
	// victim block must collapse into few translation page writes.
	d, tr := newDevice(t, 8*8)
	arrival := int64(0)
	// Random overwrites of a 900-page region: victims keep valid pages,
	// so GC must migrate them and update their mappings.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 12000; i++ {
		if _, err := d.Serve(wr(arrival, int64(rng.Intn(900)))); err != nil {
			t.Fatal(err)
		}
		arrival += int64(50 * time.Microsecond)
	}
	m := d.Metrics()
	if m.GCDataCollections == 0 {
		t.Fatal("no GC")
	}
	misses := m.GCMapUpdates - m.GCMapHits
	if misses == 0 {
		t.Fatal("no GC misses despite tiny cache")
	}
	if m.TransWritesGC >= misses {
		t.Fatalf("GC trans writes %d not batched below %d misses", m.TransWritesGC, misses)
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

func TestStandaloneUpdateInsertsDirty(t *testing.T) {
	d, tr := newDevice(t, 8*8)
	if err := tr.Update(d, 42, d.Persisted(42)); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("entries = %d", tr.Len())
	}
	dc := tr.DirtyCached()
	if len(dc) != 1 {
		t.Fatalf("dirty = %d", len(dc))
	}
}

func TestEvictionOrderProbationaryFirst(t *testing.T) {
	d, tr := newDevice(t, 8*8)
	arrival := int64(0)
	// Two protected entries, six probationary; the next insert evicts from
	// probationary even though a protected entry is older.
	for k := 0; k < 2; k++ {
		if _, err := d.Serve(rd(arrival, 1)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	for p := int64(10); p < 17; p++ {
		if _, err := d.Serve(rd(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(time.Millisecond)
	}
	// Page 1 (protected) must still be cached.
	before := d.Metrics().Hits
	if _, err := d.Serve(rd(arrival, 1)); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().Hits != before+1 {
		t.Fatal("protected entry evicted before probationary ones")
	}
	_ = tr
}
