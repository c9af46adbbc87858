package hybrid

import (
	"math/rand"
	"testing"

	"repro/internal/ftl"
	"repro/internal/trace"
)

func newDevice(t *testing.T, logBlocks int) *Device {
	t.Helper()
	d, err := New(Config{
		Device: ftl.Config{
			LogicalBytes:  4 << 20, // 1024 pages, 32 logical blocks
			PageSize:      4096,
			PagesPerBlock: 32,
			OverProvision: 0.15,
		},
		LogBlocks: logBlocks,
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

func TestMappingFootprintBetweenBlockAndPage(t *testing.T) {
	d := newDevice(t, 8)
	blockTable := int64(32 * 4)
	pageTable := int64(1024 * 8)
	got := d.MappingTableBytes()
	if got <= blockTable || got >= pageTable {
		t.Fatalf("hybrid table %d not between block %d and page %d", got, blockTable, pageTable)
	}
}

func TestFirstWritesGoInPlace(t *testing.T) {
	d := newDevice(t, 4)
	arrival := int64(0)
	for p := int64(0); p < 64; p++ {
		if _, err := d.Serve(wr(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(1e6)
	}
	m := d.Metrics()
	if m.FlashPrograms != 64 || m.FlashErases != 0 {
		t.Fatalf("programs %d erases %d; first writes must be in place", m.FlashPrograms, m.FlashErases)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdatesGoToLogBlock(t *testing.T) {
	d := newDevice(t, 4)
	arrival := int64(0)
	for p := int64(0); p < 8; p++ {
		if _, err := d.Serve(wr(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(1e6)
	}
	// Overwrite: appended to a log block, no merge yet.
	for p := int64(0); p < 8; p++ {
		if _, err := d.Serve(wr(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(1e6)
	}
	m := d.Metrics()
	if m.FlashErases != 0 {
		t.Fatalf("erases = %d before log exhaustion", m.FlashErases)
	}
	if len(d.logs) != 1 {
		t.Fatalf("log blocks = %d, want 1", len(d.logs))
	}
	// Reads must return the newest (log) version.
	for p := int64(0); p < 8; p++ {
		if _, err := d.Serve(rd(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(1e6)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestLogExhaustionForcesMerge(t *testing.T) {
	d := newDevice(t, 2)
	arrival := int64(0)
	// Touch 3 logical blocks with updates: the third log allocation must
	// merge the LRU log block.
	for lb := int64(0); lb < 3; lb++ {
		base := lb * 32
		for p := base; p < base+4; p++ {
			if _, err := d.Serve(wr(arrival, p)); err != nil {
				t.Fatal(err)
			}
			arrival += int64(1e6)
		}
		for p := base; p < base+4; p++ { // updates → log block
			if _, err := d.Serve(wr(arrival, p)); err != nil {
				t.Fatal(err)
			}
			arrival += int64(1e6)
		}
	}
	m := d.Metrics()
	if m.GCDataCollections == 0 {
		t.Fatal("no merge despite log pool exhaustion")
	}
	if len(d.logs) > 2 {
		t.Fatalf("log blocks = %d exceeds pool", len(d.logs))
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchMergeOnSequentialRewrite(t *testing.T) {
	d := newDevice(t, 1)
	arrival := int64(0)
	// Write block 0 fully, then rewrite it fully in order: the log block
	// ends up switchable and the merge must copy nothing.
	for p := int64(0); p < 32; p++ {
		if _, err := d.Serve(wr(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(1e6)
	}
	for p := int64(0); p < 32; p++ {
		if _, err := d.Serve(wr(arrival, p)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(1e6)
	}
	migBefore := d.Metrics().GCDataMigrations
	// Force the merge by starting a log for another block.
	if _, err := d.Serve(wr(arrival, 40)); err != nil {
		t.Fatal(err)
	}
	arrival += int64(1e6)
	if _, err := d.Serve(wr(arrival, 40)); err != nil { // update → needs log → merge victim
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.GCDataCollections == 0 {
		t.Fatal("no merge")
	}
	if m.GCDataMigrations != migBefore {
		t.Fatalf("switch merge copied %d pages, want 0", m.GCDataMigrations-migBefore)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWorkloadConsistency(t *testing.T) {
	d := newDevice(t, 6)
	rng := rand.New(rand.NewSource(5))
	arrival := int64(0)
	for i := 0; i < 6000; i++ {
		p := int64(rng.Intn(1024))
		arrival += int64(1e6)
		var req trace.Request
		if rng.Intn(4) == 0 {
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
	m := d.Metrics()
	if m.GCDataCollections == 0 {
		t.Fatal("random updates never merged")
	}
}

func TestRejectsInvalid(t *testing.T) {
	d := newDevice(t, 2)
	if _, err := d.Serve(wr(0, 1024)); err == nil {
		t.Fatal("beyond capacity accepted")
	}
	if _, err := d.Serve(trace.Request{Offset: 0, Length: 0}); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestRunHelper(t *testing.T) {
	d := newDevice(t, 2)
	for _, r := range []trace.Request{wr(0, 0), rd(1e6, 0)} {
		if _, err := d.Serve(r); err != nil {
			t.Fatal(err)
		}
	}
	if d.Metrics().Requests != 2 {
		t.Fatal("request count")
	}
}
