package fast

import (
	"math/rand"
	"testing"

	"repro/internal/ftl"
	"repro/internal/ftl/hybrid"
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

func TestSharedLogAbsorbsScatteredUpdates(t *testing.T) {
	d := newDevice(t, 4)
	arrival := int64(0)
	// First writes to 16 different logical blocks, then one update each:
	// BAST would need 16 log blocks; FAST's shared log absorbs all 16
	// updates without a single merge.
	for lb := int64(0); lb < 16; lb++ {
		if _, err := d.Serve(wr(arrival, lb*32)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(1e6)
	}
	for lb := int64(0); lb < 16; lb++ {
		if _, err := d.Serve(wr(arrival, lb*32)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(1e6)
	}
	m := d.Metrics()
	if m.FlashErases != 0 {
		t.Fatalf("erases = %d, want 0 (shared log absorbs scattered updates)", m.FlashErases)
	}
	if d.LogBlocksInUse() != 1 {
		t.Fatalf("log blocks = %d, want 1 (16 updates fit one block)", d.LogBlocksInUse())
	}
	// Reads return the newest version.
	for lb := int64(0); lb < 16; lb++ {
		if _, err := d.Serve(rd(arrival, lb*32)); err != nil {
			t.Fatal(err)
		}
		arrival += int64(1e6)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeCascade(t *testing.T) {
	d := newDevice(t, 1) // single log block: filling it forces a cascade
	arrival := int64(0)
	// Fill 4 logical blocks, then update one page of each, 8 rounds: the
	// 32-entry log block fills with pages of 4 different logical blocks.
	for lb := int64(0); lb < 4; lb++ {
		for p := int64(0); p < 32; p++ {
			if _, err := d.Serve(wr(arrival, lb*32+p)); err != nil {
				t.Fatal(err)
			}
			arrival += int64(1e6)
		}
	}
	for round := int64(0); round < 8; round++ {
		for lb := int64(0); lb < 4; lb++ {
			if _, err := d.Serve(wr(arrival, lb*32+round)); err != nil {
				t.Fatal(err)
			}
			arrival += int64(1e6)
		}
	}
	// The 33rd update forces the cascade: all 4 logical blocks merge.
	if _, err := d.Serve(wr(arrival, 0)); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.GCDataCollections == 0 {
		t.Fatal("no log merge")
	}
	// The cascade merged 4 logical blocks: ≥ 4 data-block erases + the log.
	if m.FlashErases < 5 {
		t.Fatalf("erases = %d, want ≥5 (4 merges + log block)", m.FlashErases)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestFASTvsBASTOnScatteredUpdates(t *testing.T) {
	// Scattered single-page updates across many logical blocks: FAST's
	// shared log must trigger far fewer merges than BAST's per-block logs.
	mkReqs := func() []trace.Request {
		rng := rand.New(rand.NewSource(9))
		out := make([]trace.Request, 3000)
		arrival := int64(0)
		for i := range out {
			arrival += int64(1e6)
			out[i] = wr(arrival, int64(rng.Intn(1024)))
		}
		return out
	}

	fd := newDevice(t, 4)
	for _, r := range mkReqs() {
		if _, err := fd.Serve(r); err != nil {
			t.Fatal(err)
		}
	}
	bd, err := hybrid.New(hybrid.Config{
		Device: ftl.Config{
			LogicalBytes: 4 << 20, PageSize: 4096, PagesPerBlock: 32, OverProvision: 0.15,
		},
		LogBlocks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mkReqs() {
		if _, err := bd.Serve(r); err != nil {
			t.Fatal(err)
		}
	}
	fm, bm := fd.Metrics(), bd.Metrics()
	if fm.GCDataMigrations >= bm.GCDataMigrations {
		t.Fatalf("FAST migrated %d pages, BAST %d — shared log should win on scattered updates",
			fm.GCDataMigrations, bm.GCDataMigrations)
	}
	if err := fd.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWorkloadConsistency(t *testing.T) {
	d := newDevice(t, 6)
	rng := rand.New(rand.NewSource(11))
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
}

func TestMappingFootprint(t *testing.T) {
	d := newDevice(t, 8)
	blockTable := int64(32 * 4)
	pageTable := int64(1024 * 8)
	got := d.MappingTableBytes()
	if got <= blockTable || got >= pageTable {
		t.Fatalf("FAST table %d not between block %d and page %d", got, blockTable, pageTable)
	}
}

func TestRejectsInvalid(t *testing.T) {
	d := newDevice(t, 2)
	if _, err := d.Serve(wr(0, 1024)); err == nil {
		t.Fatal("beyond capacity accepted")
	}
}
