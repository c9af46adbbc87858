package ftl

import (
	"fmt"
	"time"

	"repro/internal/flash"
	"repro/internal/trace"
)

// BlockMapped is the substrate under the standalone §2.1 comparison devices
// (internal/ftl/blockftl, hybrid and fast): a single-clock SSD that serves
// one request at a time, first come first served, and whose data blocks are
// block-mapped — a logical page lives at its home offset, lpn mod
// PagesPerBlock, in its logical block's data block. It owns everything the
// three share: construction, the free list, the first write at a page's home
// offset, the read path, the full merge, block retirement, the consistency
// check and the request loop. A device embeds it, binds its policy with Init
// and keeps only that policy: where an overwrite goes and when it merges.
type BlockMapped struct {
	// Flash is the device's chip and PPB its pages per block.
	Flash *flash.Chip
	PPB   int
	// BlockMap maps a logical block to its physical data block, -1 while
	// unmapped.
	BlockMap []flash.BlockID
	// M accumulates the device's counters.
	M Metrics

	cfg   Config
	name  string
	extra int             // page-mapped log blocks beyond the data blocks
	free  []flash.BlockID // a stack: the lowest block is handed out first
	truth []flash.PPN     // LPN → newest physical page, the ground truth
	clock time.Duration

	locate    func(lpn int64) (flash.PPN, bool)
	writePage func(lpn int64) (time.Duration, error)
}

// Init builds the substrate of a device called name (the prefix of its
// errors) over cfg, with extra page-mapped log blocks beside the data
// blocks. locate returns the physical page holding lpn's newest version;
// writePage serves one page write under the device's policy.
//
// Every unset geometry and timing field takes its Table 3 default. The chip
// has one block per logical block, plus extra, plus ⌊logical blocks ×
// OverProvision⌋ — at least two spares, since a merge needs a free block.
func (b *BlockMapped) Init(name string, cfg Config, extra int, locate func(int64) (flash.PPN, bool), writePage func(int64) (time.Duration, error)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg = cfg.normalize()
	ppb := cfg.PagesPerBlock
	logicalPages := cfg.LogicalPages()
	logical := int((logicalPages + int64(ppb) - 1) / int64(ppb))
	phys := max(logical+extra+int(float64(logical)*cfg.OverProvision), logical+extra+2)
	chip, err := flash.New(flash.Config{
		PageSize:      cfg.PageSize,
		PagesPerBlock: ppb,
		NumBlocks:     phys,
		ReadLatency:   cfg.ReadLatency,
		WriteLatency:  cfg.WriteLatency,
		EraseLatency:  cfg.EraseLatency,
		// Home offsets require the SLC-era freedom to program a block's
		// pages in any order.
		AllowOutOfOrder: true,
	})
	if err != nil {
		return err
	}
	*b = BlockMapped{
		Flash:     chip,
		PPB:       ppb,
		BlockMap:  make([]flash.BlockID, logical),
		cfg:       cfg,
		name:      name,
		extra:     extra,
		free:      make([]flash.BlockID, phys),
		truth:     make([]flash.PPN, logicalPages),
		locate:    locate,
		writePage: writePage,
	}
	for i := range b.BlockMap {
		b.BlockMap[i] = -1
	}
	for i := range b.truth {
		b.truth[i] = flash.InvalidPPN
	}
	for i := range b.free {
		b.free[i] = flash.BlockID(phys - 1 - i)
	}
	return nil
}

// MappingTableBytes returns the RAM footprint of the mapping: 4 B per
// logical block for the block map — the paper's mapping-cache budget
// convention — plus an 8 B page-level entry per page of the log blocks.
func (b *BlockMapped) MappingTableBytes() int64 {
	return int64(len(b.BlockMap))*4 + int64(b.extra)*int64(b.PPB)*8
}

// Metrics returns the accumulated counters.
func (b *BlockMapped) Metrics() Metrics { return b.M }

// Chip exposes the flash chip for tests.
func (b *BlockMapped) Chip() *flash.Chip { return b.Flash }

// AllocBlock pops a free block.
func (b *BlockMapped) AllocBlock() (flash.BlockID, error) {
	if len(b.free) == 0 {
		return -1, fmt.Errorf("%s: out of free blocks", b.name)
	}
	blk := b.free[len(b.free)-1]
	b.free = b.free[:len(b.free)-1]
	return blk, nil
}

// RetireBlock invalidates the valid pages left in blk, erases it and
// returns it to the free list.
func (b *BlockMapped) RetireBlock(blk flash.BlockID) (time.Duration, error) {
	for i := 0; i < b.PPB; i++ {
		if p := b.Flash.PageAt(blk, i); b.Flash.State(p) == flash.PageValid {
			if err := b.Flash.Invalidate(p); err != nil {
				return 0, err
			}
		}
	}
	lat, err := b.Flash.Erase(blk)
	if err != nil {
		return 0, err
	}
	b.M.FlashErases++
	b.free = append(b.free, blk)
	return lat, nil
}

// HomePage returns lpn's page at its home offset in its logical block's data
// block, while that page holds valid data.
func (b *BlockMapped) HomePage(lpn int64) (flash.PPN, bool) {
	if phys := b.BlockMap[lpn/int64(b.PPB)]; phys >= 0 {
		if p := b.Flash.PageAt(phys, int(lpn%int64(b.PPB))); b.Flash.State(p) == flash.PageValid {
			return p, true
		}
	}
	return flash.InvalidPPN, false
}

// program writes lpn's new version to p, which becomes its ground truth.
func (b *BlockMapped) program(lpn int64, p flash.PPN) (time.Duration, error) {
	lat, err := b.Flash.Program(p, flash.Meta{Kind: flash.KindData, Tag: lpn})
	if err != nil {
		return 0, err
	}
	b.M.FlashPrograms++
	b.truth[lpn] = p
	return lat, nil
}

// WriteHome programs lpn at its home offset, mapping a data block to its
// logical block first if it has none, when that page is still free. ok is
// false, and nothing is programmed, when the page is taken.
func (b *BlockMapped) WriteHome(lpn int64) (lat time.Duration, ok bool, err error) {
	lb := lpn / int64(b.PPB)
	if b.BlockMap[lb] < 0 {
		if b.BlockMap[lb], err = b.AllocBlock(); err != nil {
			return 0, false, err
		}
	}
	p := b.Flash.PageAt(b.BlockMap[lb], int(lpn%int64(b.PPB)))
	if b.Flash.State(p) != flash.PageFree {
		return 0, false, nil
	}
	lat, err = b.program(lpn, p)
	return lat, true, err
}

// Update programs lpn's new version at p and invalidates the version it
// supersedes, wherever locate finds it. The device updates its own map
// afterwards.
func (b *BlockMapped) Update(lpn int64, p flash.PPN) (time.Duration, error) {
	old, had := b.locate(lpn)
	lat, err := b.program(lpn, p)
	if err != nil {
		return 0, err
	}
	if had {
		if err := b.Flash.Invalidate(old); err != nil {
			return 0, err
		}
	}
	return lat, nil
}

// Merge is the full merge: the newest version of every page of logical
// block lb, wherever locate finds it, moves to its home offset in a fresh
// data block (one read and one program each, counted as GC data
// migrations), and the old data block is retired. Log pages it moved are
// left invalid; dropping them from the log's map is the caller's part.
func (b *BlockMapped) Merge(lb int) (time.Duration, error) {
	blk, err := b.AllocBlock()
	if err != nil {
		return 0, err
	}
	var acc time.Duration
	base := int64(lb) * int64(b.PPB)
	for off := 0; off < b.PPB; off++ {
		lpn := base + int64(off)
		src, ok := b.locate(lpn)
		if !ok {
			continue
		}
		lat, err := b.Flash.Read(src)
		if err != nil {
			return acc, err
		}
		b.M.FlashReads++
		acc += lat
		if lat, err = b.program(lpn, b.Flash.PageAt(blk, off)); err != nil {
			return acc, err
		}
		b.M.GCDataMigrations++
		acc += lat
		if err := b.Flash.Invalidate(src); err != nil {
			return acc, err
		}
	}
	if old := b.BlockMap[lb]; old >= 0 {
		lat, err := b.RetireBlock(old)
		acc += lat
		if err != nil {
			return acc, err
		}
	}
	b.BlockMap[lb] = blk
	return acc, nil
}

// Serve executes one request first-come first-served, split into page
// accesses on the device's single clock, and returns its response time.
func (b *BlockMapped) Serve(req trace.Request) (time.Duration, error) {
	if err := req.Validate(); err != nil {
		return 0, err
	}
	if req.End() > b.cfg.LogicalBytes {
		return 0, fmt.Errorf("%s: request beyond capacity", b.name)
	}
	arrival := time.Duration(req.Arrival)
	start := max(b.clock, arrival)
	var acc time.Duration
	switch req.Op {
	case trace.OpRead, trace.OpWrite, trace.OpWriteFUA:
		first, last := req.Pages(b.cfg.PageSize)
		for lpn := first; lpn <= last; lpn++ {
			var lat time.Duration
			var err error
			if req.IsWrite() {
				b.M.PageWrites++
				lat, err = b.writePage(lpn)
			} else {
				b.M.PageReads++
				lat, err = b.readPage(lpn)
			}
			if err != nil {
				return 0, err
			}
			acc += lat
		}
	case trace.OpTrim, trace.OpFlush:
		// TRIM is advisory and these pre-TRIM designs ignore it (the data
		// stays until overwritten, which the spec permits); every write is
		// already synchronous, so a flush barrier has nothing to drain.
	default:
		return 0, fmt.Errorf("%s: unhandled request op %v", b.name, req.Op)
	}
	b.clock = start + acc
	resp := b.clock - arrival
	b.M.Requests++
	b.M.ServiceTime += acc
	b.M.ResponseTime += resp
	b.M.QueueTime += start - arrival
	b.M.ObserveResponse(resp)
	if SanitizerEnabled {
		if err := SanitizeCheck(b.name, b.CheckConsistency); err != nil {
			return 0, err
		}
	}
	return resp, nil
}

func (b *BlockMapped) readPage(lpn int64) (time.Duration, error) {
	ppn, ok := b.locate(lpn)
	if !ok {
		if b.truth[lpn].Valid() {
			return 0, fmt.Errorf("%s: lost mapping for lpn %d", b.name, lpn)
		}
		b.M.UnmappedReads++
		return 0, nil
	}
	if ppn != b.truth[lpn] {
		return 0, fmt.Errorf("%s: mistranslated lpn %d: %d vs truth %d", b.name, lpn, ppn, b.truth[lpn])
	}
	lat, err := b.Flash.Read(ppn)
	if err != nil {
		return 0, err
	}
	b.M.FlashReads++
	return lat, nil
}

// CheckConsistency verifies the chip's bookkeeping and that every written
// LPN's ground truth is a valid page tagged with that LPN and is the page
// locate finds.
func (b *BlockMapped) CheckConsistency() error {
	if err := b.Flash.CheckInvariants(); err != nil {
		return err
	}
	for lpn, ppn := range b.truth {
		if !ppn.Valid() {
			continue
		}
		if st := b.Flash.State(ppn); st != flash.PageValid {
			return fmt.Errorf("%s: truth[%d]=%d in state %v", b.name, lpn, ppn, st)
		}
		if m := b.Flash.MetaOf(ppn); m.Tag != int64(lpn) {
			return fmt.Errorf("%s: truth[%d]=%d tagged %d", b.name, lpn, ppn, m.Tag)
		}
		if got, ok := b.locate(int64(lpn)); !ok || got != ppn {
			return fmt.Errorf("%s: locate(%d) = %d,%v, truth %d", b.name, lpn, got, ok, ppn)
		}
	}
	return nil
}
