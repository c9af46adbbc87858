// Package blockftl implements a block-level FTL, the coarse-grained end of
// the paper's §2.1 taxonomy.
//
// A block-level FTL maps logical blocks to physical blocks; a page's offset
// inside its block is fixed. The mapping table is tiny — 4 B per 256 KB
// block, which is exactly the budget the paper grants the page-level
// schemes' mapping caches (§5.1) — but any write that cannot continue the
// physical block's program order forces a copy-merge of the whole block,
// which is why the paper dismisses block-level FTLs for random writes. This
// implementation exists to ground that comparison (see the
// BenchmarkMappingGranularity harness) and to document the cache-size
// convention.
package blockftl

import (
	"fmt"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/trace"
)

// Device is a standalone block-mapped SSD simulator sharing the flash chip
// substrate with the page-level framework.
type Device struct {
	cfg  ftl.Config
	chip *flash.Chip

	blockMap []flash.BlockID // logical block → physical block, -1 unmapped
	free     []flash.BlockID

	logicalBlocks int
	ppb           int

	clock time.Duration
	m     ftl.Metrics
	fcfs  ftl.FCFS // the shared request loop, bound to this device by New

	truth []flash.PPN // ground truth for verification
}

// New builds a block-level device. The physical space is the logical space
// plus over-provisioning (merges need at least one spare block).
func New(cfg ftl.Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	full := ftl.DefaultConfig(cfg.LogicalBytes)
	if cfg.PageSize != 0 {
		full.PageSize = cfg.PageSize
	}
	if cfg.PagesPerBlock != 0 {
		full.PagesPerBlock = cfg.PagesPerBlock
	}
	if cfg.OverProvision != 0 {
		full.OverProvision = cfg.OverProvision
	}
	if cfg.ReadLatency != 0 {
		full.ReadLatency = cfg.ReadLatency
	}
	if cfg.WriteLatency != 0 {
		full.WriteLatency = cfg.WriteLatency
	}
	if cfg.EraseLatency != 0 {
		full.EraseLatency = cfg.EraseLatency
	}
	ppb := full.PagesPerBlock
	logicalPages := full.LogicalPages()
	logicalBlocks := int((logicalPages + int64(ppb) - 1) / int64(ppb))
	phys := logicalBlocks + int(float64(logicalBlocks)*full.OverProvision)
	if phys < logicalBlocks+2 {
		phys = logicalBlocks + 2
	}
	chipCfg := flash.Config{
		PageSize:      full.PageSize,
		PagesPerBlock: ppb,
		NumBlocks:     phys,
		ReadLatency:   full.ReadLatency,
		WriteLatency:  full.WriteLatency,
		EraseLatency:  full.EraseLatency,
		// Block mapping places pages at fixed offsets, which requires the
		// SLC-era freedom to program a block's pages in any order.
		AllowOutOfOrder: true,
	}
	chip, err := flash.New(chipCfg)
	if err != nil {
		return nil, err
	}
	d := &Device{
		cfg:           full,
		chip:          chip,
		blockMap:      make([]flash.BlockID, logicalBlocks),
		logicalBlocks: logicalBlocks,
		ppb:           ppb,
		truth:         make([]flash.PPN, logicalPages),
	}
	for i := range d.blockMap {
		d.blockMap[i] = -1
	}
	for i := range d.truth {
		d.truth[i] = flash.InvalidPPN
	}
	for b := phys - 1; b >= 0; b-- {
		d.free = append(d.free, flash.BlockID(b))
	}
	d.fcfs = ftl.FCFS{
		Name: "blockftl", Config: &d.cfg, Clock: &d.clock, Metrics: &d.m,
		ReadPage: d.readPage, WritePage: d.writePage, Check: d.CheckConsistency,
	}
	return d, nil
}

// MappingTableBytes returns the RAM footprint of the block map (4 B per
// logical block) — the paper's mapping-cache budget convention.
func (d *Device) MappingTableBytes() int64 { return int64(d.logicalBlocks) * 4 }

// Metrics returns the accumulated counters.
func (d *Device) Metrics() ftl.Metrics { return d.m }

// Chip exposes the flash chip for tests.
func (d *Device) Chip() *flash.Chip { return d.chip }

// Serve executes one request FCFS and returns its response time.
func (d *Device) Serve(req trace.Request) (time.Duration, error) {
	return d.fcfs.Serve(req)
}

func (d *Device) pageAt(lb int, off int) (flash.PPN, bool) {
	phys := d.blockMap[lb]
	if phys < 0 {
		return flash.InvalidPPN, false
	}
	return d.chip.PageAt(phys, off), true
}

func (d *Device) readPage(lpn int64) (time.Duration, error) {
	lb, off := int(lpn/int64(d.ppb)), int(lpn%int64(d.ppb))
	ppn, ok := d.pageAt(lb, off)
	if !ok || d.chip.State(ppn) != flash.PageValid {
		if d.truth[lpn].Valid() {
			return 0, fmt.Errorf("blockftl: lost mapping for lpn %d", lpn)
		}
		d.m.UnmappedReads++
		return 0, nil
	}
	if ppn != d.truth[lpn] {
		return 0, fmt.Errorf("blockftl: mistranslated lpn %d: %d vs truth %d", lpn, ppn, d.truth[lpn])
	}
	lat, err := d.chip.Read(ppn)
	if err != nil {
		return 0, err
	}
	d.m.FlashReads++
	return lat, nil
}

// writePage programs the page at its fixed offset when that page is still
// free; otherwise it performs the copy-merge that defines block-level FTL
// behaviour.
func (d *Device) writePage(lpn int64) (time.Duration, error) {
	lb, off := int(lpn/int64(d.ppb)), int(lpn%int64(d.ppb))
	phys := d.blockMap[lb]

	if phys < 0 {
		blk, err := d.allocBlock()
		if err != nil {
			return 0, err
		}
		d.blockMap[lb] = blk
		phys = blk
	}
	ppn := d.chip.PageAt(phys, off)
	if d.chip.State(ppn) == flash.PageFree {
		lat, err := d.chip.Program(ppn, flash.Meta{Kind: flash.KindData, Tag: lpn})
		if err != nil {
			return 0, err
		}
		d.m.FlashPrograms++
		d.truth[lpn] = ppn
		return lat, nil
	}
	// Overwrite of a programmed page: the rigid mapping forces a merge.
	return d.merge(lb, off, lpn)
}

// merge rewrites logical block lb into a fresh physical block with the new
// page content at off, copying every other valid page, then erases the old
// block. This is the full-merge that makes block-level FTLs collapse under
// random writes.
func (d *Device) merge(lb, off int, lpn int64) (time.Duration, error) {
	newBlk, err := d.allocBlock()
	if err != nil {
		return 0, err
	}
	old := d.blockMap[lb]
	var acc time.Duration
	base := int64(lb) * int64(d.ppb)
	for i := 0; i < d.ppb; i++ {
		dst := d.chip.PageAt(newBlk, i)
		cur := base + int64(i)
		switch {
		case i == off:
			lat, err := d.chip.Program(dst, flash.Meta{Kind: flash.KindData, Tag: cur})
			if err != nil {
				return 0, err
			}
			d.m.FlashPrograms++
			d.truth[cur] = dst
			acc += lat
		case old >= 0 && d.chip.State(d.chip.PageAt(old, i)) == flash.PageValid:
			src := d.chip.PageAt(old, i)
			lat, err := d.chip.Read(src)
			if err != nil {
				return 0, err
			}
			d.m.FlashReads++
			acc += lat
			lat, err = d.chip.Program(dst, flash.Meta{Kind: flash.KindData, Tag: cur})
			if err != nil {
				return 0, err
			}
			d.m.FlashPrograms++
			d.m.GCDataMigrations++
			d.truth[cur] = dst
			acc += lat
		}
	}
	d.blockMap[lb] = newBlk
	if old >= 0 {
		for i := 0; i < d.ppb; i++ {
			p := d.chip.PageAt(old, i)
			if d.chip.State(p) == flash.PageValid {
				if err := d.chip.Invalidate(p); err != nil {
					return 0, err
				}
			}
		}
		lat, err := d.chip.Erase(old)
		if err != nil {
			return 0, err
		}
		d.m.FlashErases++
		d.m.GCDataCollections++
		acc += lat
		d.free = append(d.free, old)
	}
	return acc, nil
}

func (d *Device) allocBlock() (flash.BlockID, error) {
	if len(d.free) == 0 {
		return -1, fmt.Errorf("blockftl: out of free blocks")
	}
	b := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	return b, nil
}

// CheckConsistency verifies the truth table against the chip.
func (d *Device) CheckConsistency() error {
	if err := d.chip.CheckInvariants(); err != nil {
		return err
	}
	for lpn, ppn := range d.truth {
		if !ppn.Valid() {
			continue
		}
		if st := d.chip.State(ppn); st != flash.PageValid {
			return fmt.Errorf("blockftl: truth[%d]=%d in state %v", lpn, ppn, st)
		}
		if m := d.chip.MetaOf(ppn); m.Tag != int64(lpn) {
			return fmt.Errorf("blockftl: truth[%d]=%d tagged %d", lpn, ppn, m.Tag)
		}
	}
	return nil
}
