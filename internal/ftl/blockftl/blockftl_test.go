package blockftl

import (
	"math/rand"
	"testing"

	"repro/internal/ftl"
	"repro/internal/trace"
)

func newDevice(t *testing.T) *Device {
	t.Helper()
	d, err := New(ftl.Config{
		LogicalBytes:  4 << 20, // 1024 pages, 32 logical blocks
		PageSize:      4096,
		PagesPerBlock: 32,
		OverProvision: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func wr(arrival, page int64) trace.Request {
	return trace.Request{Arrival: arrival, Offset: page * 4096, Length: 4096, Op: trace.OpWrite}
}

func rd(arrival, page int64) trace.Request {
	return trace.Request{Arrival: arrival, Offset: page * 4096, Length: 4096, Op: trace.OpRead}
}

func TestMappingTableConvention(t *testing.T) {
	d, err := New(ftl.Config{LogicalBytes: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// 512 MB / 256 KB blocks = 2048 blocks → 8 KB, the paper's cache size.
	if got := d.MappingTableBytes(); got != 8<<10 {
		t.Fatalf("table = %d, want 8KB", got)
	}
}

func TestSequentialWritesAreCheap(t *testing.T) {
	d := newDevice(t)
	arrival := int64(0)
	for p := int64(0); p < 256; p++ { // 8 blocks, strictly in order
		if _, err := d.Serve(wr(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(1e6)
	}
	m := d.Metrics()
	if m.FlashPrograms != 256 {
		t.Fatalf("programs = %d, want 256 (no merges)", m.FlashPrograms)
	}
	if m.FlashErases != 0 {
		t.Fatalf("erases = %d, want 0", m.FlashErases)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomOverwriteForcesMerges(t *testing.T) {
	d := newDevice(t)
	arrival := int64(0)
	// Fill one block, then overwrite a middle page: full merge expected.
	for p := int64(0); p < 32; p++ {
		if _, err := d.Serve(wr(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(1e6)
	}
	before := d.Metrics()
	if _, err := d.Serve(wr(arrival, 5)); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.FlashErases != before.FlashErases+1 {
		t.Fatal("overwrite did not merge")
	}
	// Merge copies the other 31 valid pages.
	if got := m.GCDataMigrations - before.GCDataMigrations; got != 31 {
		t.Fatalf("migrations = %d, want 31", got)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfOrderFirstWrite(t *testing.T) {
	d := newDevice(t)
	// First write of a logical block at offset 3: block-level FTLs rely on
	// SLC-style random in-block programming, so no merge is needed.
	if _, err := d.Serve(wr(0, 3)); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().FlashErases != 0 {
		t.Fatal("first out-of-order write should not merge")
	}
	// A later in-fill at a lower offset also programs directly.
	if _, err := d.Serve(wr(1e6, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Serve(rd(2e6, 3)); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestReadUnmapped(t *testing.T) {
	d := newDevice(t)
	if _, err := d.Serve(rd(0, 100)); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().UnmappedReads != 1 {
		t.Fatal("unmapped read not counted")
	}
}

func TestRandomWorkloadConsistency(t *testing.T) {
	d := newDevice(t)
	rng := rand.New(rand.NewSource(3))
	arrival := int64(0)
	for i := 0; i < 4000; i++ {
		p := int64(rng.Intn(1024))
		arrival += int64(1e6)
		var req trace.Request
		if rng.Intn(3) == 0 {
			req = rd(arrival, p)
		} else {
			req = wr(arrival, p)
		}
		if _, err := d.Serve(req); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Random writes on a block FTL must show brutal write amplification.
	m := d.Metrics()
	if wa := m.WriteAmplification(); wa < 3 {
		t.Fatalf("WA = %.2f, expected block-level FTL to amplify heavily", wa)
	}
}

func TestRunHelper(t *testing.T) {
	d := newDevice(t)
	for _, r := range []trace.Request{wr(0, 0), wr(1e6, 1), rd(2e6, 0)} {
		if _, err := d.Serve(r); err != nil {
			t.Fatal(err)
		}
	}
	if m := d.Metrics(); m.Requests != 3 {
		t.Fatalf("requests = %d", m.Requests)
	}
}

func TestRejectsBeyondCapacity(t *testing.T) {
	d := newDevice(t)
	if _, err := d.Serve(wr(0, 1024)); err == nil {
		t.Fatal("request beyond capacity accepted")
	}
	if _, err := d.Serve(trace.Request{Offset: -1, Length: 4096}); err == nil {
		t.Fatal("invalid request accepted")
	}
}
