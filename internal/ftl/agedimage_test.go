package ftl_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
)

// TestAgedImageGolden pins the device image that Format followed by
// PreconditionRange over three quarters of the logical pages leaves behind on
// a TPFTL device — the state every measured run starts from. Per geometry it
// is the FNV-64a of:
//
//   - every page's state and out-of-band metadata (kind, tag, sequence
//     number), and every block's write pointer and erase count;
//   - the ground-truth and persisted mapping of every LPN, and the GTD;
//   - the block manager's free lists, frontiers, cursors, block kinds, victim
//     heap array and last-invalidation ticks.
//
// The replay goldens see this image only through the metrics of what runs on
// it; this pins it directly, so a change to allocation, victim choice or the
// heap's tie order fails here by name. Regenerate the pins only for an
// intended behaviour change, and say so in the commit.
func TestAgedImageGolden(t *testing.T) {
	golden := map[string]uint64{
		"1x1": 0xa874fa0dea3805df,
		"4x2": 0x6a3496c19a26b10f,
	}
	for _, g := range []struct {
		name           string
		channels, dies int
	}{{"1x1", 1, 1}, {"4x2", 4, 2}} {
		// 512-byte pages give 128 entries per translation page: 128
		// translation pages, so GC-time map updates churn translation
		// blocks too.
		cfg := ftl.Config{
			LogicalBytes:  8 << 20,
			PageSize:      512,
			PagesPerBlock: 32,
			OverProvision: 0.15,
			CacheBytes:    1 << 10,
			Channels:      g.channels,
			Dies:          g.dies,
		}
		d, err := ftl.NewDevice(cfg, core.New(core.DefaultConfig(cfg.CacheBytes)))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Format(); err != nil {
			t.Fatal(err)
		}
		pages := cfg.LogicalPages() * 3 / 4
		if err := d.PreconditionRange(int(pages), pages, 17); err != nil {
			t.Fatal(err)
		}
		if m := d.Metrics(); m.GCDataCollections == 0 || m.GCTransCollections == 0 {
			t.Fatalf("%s: %d data and %d translation collections: preconditioning did not age the device",
				g.name, m.GCDataCollections, m.GCTransCollections)
		}

		h := fnv.New64a()
		var buf [8]byte
		put := func(v int64) {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		chip := d.Chip()
		fc := chip.Config()
		for b := 0; b < fc.NumBlocks; b++ {
			blk := flash.BlockID(b)
			put(int64(chip.WritePtr(blk)))
			put(int64(chip.EraseCount(blk)))
			for off := 0; off < fc.PagesPerBlock; off++ {
				p := chip.PageAt(blk, off)
				m := chip.MetaOf(p)
				put(int64(chip.State(p)))
				put(int64(m.Kind))
				put(m.Tag)
				put(m.Seq)
			}
		}
		for lpn := ftl.LPN(0); int64(lpn) < cfg.LogicalPages(); lpn++ {
			put(int64(d.Truth(lpn)))
			put(int64(d.Persisted(lpn)))
		}
		for v := ftl.VTPN(0); int(v) < d.NumTPs(); v++ {
			put(int64(d.GTDEntry(v)))
		}
		d.BlockMgrImage(put)
		if got, want := h.Sum64(), golden[g.name]; got != want {
			t.Errorf("%s: aged image hash %#x, want %#x", g.name, got, want)
		}
	}
}
