// Package hybrid implements a BAST-style log-buffer hybrid FTL (Lee et al.,
// "A log buffer-based flash translation layer using fully-associative sector
// translation" lineage; the paper's §2.1 taxonomy).
//
// Data blocks are block-mapped (fixed page offsets); a small pool of
// page-mapped log blocks absorbs updates, one log block dedicated per
// logical block (the BAST discipline). When a logical block needs a log
// block and the pool is exhausted, the least-recently-used log block is
// merged with its data block — a full merge (copy the newest version of
// every page into a fresh block) unless the log block happens to contain
// the whole block written in order, in which case it is switched in place.
//
// Hybrid FTLs need far less RAM than page-level mapping but collapse under
// random writes, where every few updates force a full merge — the paper's
// §2.1 motivation for demand-based page-level FTLs. The
// BenchmarkMappingGranularity harness quantifies this against blockftl and
// the page-level schemes.
package hybrid

import (
	"fmt"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/lru"
	"repro/internal/trace"
)

// Config parameterizes the hybrid device.
type Config struct {
	// Device geometry; see ftl.Config.
	Device ftl.Config
	// LogBlocks is the size of the log-block pool (default 8).
	LogBlocks int
}

// logBlock is one page-mapped log block dedicated to a logical block.
type logBlock struct {
	node   lru.Node[*logBlock]
	lb     int           // owning logical block
	blk    flash.BlockID // physical block
	next   int           // append pointer
	latest map[int]int   // logical offset → log offset of newest version
}

// Device is a standalone hybrid-mapped SSD simulator.
type Device struct {
	cfg  Config
	chip *flash.Chip

	blockMap []flash.BlockID // logical block → physical data block, -1
	logs     map[int]*logBlock
	logLRU   lru.List[*logBlock] // MRU..LRU log blocks
	free     []flash.BlockID

	logicalBlocks int
	ppb           int

	clock time.Duration
	m     ftl.Metrics
	fcfs  ftl.FCFS // the shared request loop, bound to this device by New

	truth []flash.PPN
}

// New builds a hybrid device.
func New(cfg Config) (*Device, error) {
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if cfg.LogBlocks == 0 {
		cfg.LogBlocks = 8
	}
	full := ftl.DefaultConfig(cfg.Device.LogicalBytes)
	if cfg.Device.PageSize != 0 {
		full.PageSize = cfg.Device.PageSize
	}
	if cfg.Device.PagesPerBlock != 0 {
		full.PagesPerBlock = cfg.Device.PagesPerBlock
	}
	if cfg.Device.OverProvision != 0 {
		full.OverProvision = cfg.Device.OverProvision
	}
	if cfg.Device.ReadLatency != 0 {
		full.ReadLatency = cfg.Device.ReadLatency
	}
	if cfg.Device.WriteLatency != 0 {
		full.WriteLatency = cfg.Device.WriteLatency
	}
	if cfg.Device.EraseLatency != 0 {
		full.EraseLatency = cfg.Device.EraseLatency
	}
	cfg.Device = full
	ppb := full.PagesPerBlock
	logicalPages := full.LogicalPages()
	logicalBlocks := int((logicalPages + int64(ppb) - 1) / int64(ppb))
	phys := logicalBlocks + cfg.LogBlocks + int(float64(logicalBlocks)*full.OverProvision)
	if phys < logicalBlocks+cfg.LogBlocks+2 {
		phys = logicalBlocks + cfg.LogBlocks + 2
	}
	chip, err := flash.New(flash.Config{
		PageSize:        full.PageSize,
		PagesPerBlock:   ppb,
		NumBlocks:       phys,
		ReadLatency:     full.ReadLatency,
		WriteLatency:    full.WriteLatency,
		EraseLatency:    full.EraseLatency,
		AllowOutOfOrder: true, // data blocks keep fixed offsets
	})
	if err != nil {
		return nil, err
	}
	d := &Device{
		cfg:           cfg,
		chip:          chip,
		blockMap:      make([]flash.BlockID, logicalBlocks),
		logs:          make(map[int]*logBlock),
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
		Name: "hybrid", Config: &d.cfg.Device, Clock: &d.clock, Metrics: &d.m,
		ReadPage: d.readPage, WritePage: d.writePage, Check: d.CheckConsistency,
	}
	return d, nil
}

// MappingTableBytes returns the hybrid RAM footprint: the block map plus
// page-level maps for the log pool only.
func (d *Device) MappingTableBytes() int64 {
	return int64(d.logicalBlocks)*4 + int64(d.cfg.LogBlocks)*int64(d.ppb)*8
}

// Metrics returns the accumulated counters.
func (d *Device) Metrics() ftl.Metrics { return d.m }

// Serve executes one request FCFS and returns its response time.
func (d *Device) Serve(req trace.Request) (time.Duration, error) {
	return d.fcfs.Serve(req)
}

// locate returns the newest physical page of lpn.
func (d *Device) locate(lpn int64) (flash.PPN, bool) {
	lb, off := int(lpn/int64(d.ppb)), int(lpn%int64(d.ppb))
	if lg := d.logs[lb]; lg != nil {
		if lo, ok := lg.latest[off]; ok {
			return d.chip.PageAt(lg.blk, lo), true
		}
	}
	if phys := d.blockMap[lb]; phys >= 0 {
		p := d.chip.PageAt(phys, off)
		if d.chip.State(p) == flash.PageValid {
			return p, true
		}
	}
	return flash.InvalidPPN, false
}

func (d *Device) readPage(lpn int64) (time.Duration, error) {
	ppn, ok := d.locate(lpn)
	if !ok {
		if d.truth[lpn].Valid() {
			return 0, fmt.Errorf("hybrid: lost mapping for lpn %d", lpn)
		}
		d.m.UnmappedReads++
		return 0, nil
	}
	if ppn != d.truth[lpn] {
		return 0, fmt.Errorf("hybrid: mistranslated lpn %d: %d vs truth %d", lpn, ppn, d.truth[lpn])
	}
	lat, err := d.chip.Read(ppn)
	if err != nil {
		return 0, err
	}
	d.m.FlashReads++
	return lat, nil
}

func (d *Device) writePage(lpn int64) (time.Duration, error) {
	lb, off := int(lpn/int64(d.ppb)), int(lpn%int64(d.ppb))

	// First write of this page with the data-block slot free: write in
	// place (fixed offset), provided no newer version sits in a log.
	if lg := d.logs[lb]; lg == nil || !hasOff(lg, off) {
		if phys := d.blockMap[lb]; phys < 0 {
			blk, err := d.allocBlock()
			if err != nil {
				return 0, err
			}
			d.blockMap[lb] = blk
		}
		p := d.chip.PageAt(d.blockMap[lb], off)
		if d.chip.State(p) == flash.PageFree {
			lat, err := d.chip.Program(p, flash.Meta{Kind: flash.KindData, Tag: lpn})
			if err != nil {
				return 0, err
			}
			d.m.FlashPrograms++
			d.truth[lpn] = p
			return lat, nil
		}
	}

	// Update: append to the logical block's log block.
	var acc time.Duration
	lg, lat, err := d.logFor(lb)
	acc += lat
	if err != nil {
		return 0, err
	}
	if lg.next >= d.ppb {
		// Log full: merge, then retry as a fresh update.
		lat, err := d.merge(lb)
		acc += lat
		if err != nil {
			return 0, err
		}
		lg, lat, err = d.logFor(lb)
		acc += lat
		if err != nil {
			return 0, err
		}
	}
	old, hadOld := d.locate(lpn)
	p := d.chip.PageAt(lg.blk, lg.next)
	wlat, err := d.chip.Program(p, flash.Meta{Kind: flash.KindData, Tag: lpn})
	if err != nil {
		return 0, err
	}
	acc += wlat
	d.m.FlashPrograms++
	lg.latest[off] = lg.next
	lg.next++
	d.logLRU.MoveToFront(&lg.node)
	if hadOld {
		if err := d.chip.Invalidate(old); err != nil {
			return 0, err
		}
	}
	d.truth[lpn] = p
	return acc, nil
}

func hasOff(lg *logBlock, off int) bool {
	_, ok := lg.latest[off]
	return ok
}

// logFor returns lb's log block, allocating one (and merging a victim when
// the pool is exhausted).
func (d *Device) logFor(lb int) (*logBlock, time.Duration, error) {
	if lg := d.logs[lb]; lg != nil {
		return lg, 0, nil
	}
	var acc time.Duration
	for len(d.logs) >= d.cfg.LogBlocks {
		victim := d.logLRU.Back().Value
		lat, err := d.merge(victim.lb)
		acc += lat
		if err != nil {
			return nil, acc, err
		}
	}
	blk, err := d.allocBlock()
	if err != nil {
		return nil, acc, err
	}
	lg := &logBlock{lb: lb, blk: blk, latest: make(map[int]int)}
	lg.node.Value = lg
	d.logs[lb] = lg
	d.logLRU.PushFront(&lg.node)
	return lg, acc, nil
}

// merge consolidates lb's newest page versions into one block. A switch
// merge (the log block holds every page at its home offset) promotes the
// log block to data block; otherwise a full merge copies into a fresh block.
func (d *Device) merge(lb int) (time.Duration, error) {
	lg := d.logs[lb]
	if lg == nil {
		return 0, nil
	}
	var acc time.Duration
	old := d.blockMap[lb]
	base := int64(lb) * int64(d.ppb)

	if d.isSwitchable(lg) {
		// Switch merge: the log block IS the new data block.
		if old >= 0 {
			lat, err := d.retireBlock(old)
			acc += lat
			if err != nil {
				return acc, err
			}
		}
		d.blockMap[lb] = lg.blk
		d.removeLog(lg)
		d.m.GCDataCollections++
		return acc, nil
	}

	newBlk, err := d.allocBlock()
	if err != nil {
		return acc, err
	}
	for off := 0; off < d.ppb; off++ {
		lpn := base + int64(off)
		src, ok := d.locate(lpn)
		if !ok {
			continue
		}
		lat, err := d.chip.Read(src)
		if err != nil {
			return acc, err
		}
		d.m.FlashReads++
		acc += lat
		dst := d.chip.PageAt(newBlk, off)
		lat, err = d.chip.Program(dst, flash.Meta{Kind: flash.KindData, Tag: lpn})
		if err != nil {
			return acc, err
		}
		d.m.FlashPrograms++
		d.m.GCDataMigrations++
		acc += lat
		d.truth[lpn] = dst
	}
	if old >= 0 {
		lat, err := d.retireBlock(old)
		acc += lat
		if err != nil {
			return acc, err
		}
	}
	lat, err := d.retireBlock(lg.blk)
	acc += lat
	if err != nil {
		return acc, err
	}
	d.removeLog(lg)
	d.blockMap[lb] = newBlk
	d.m.GCDataCollections++
	return acc, nil
}

// isSwitchable reports whether every page of the logical block sits in the
// log block at its home offset (a sequentially rewritten block).
func (d *Device) isSwitchable(lg *logBlock) bool {
	if len(lg.latest) != d.ppb {
		return false
	}
	for off, lo := range lg.latest {
		if off != lo {
			return false
		}
	}
	return true
}

// retireBlock invalidates all remaining valid pages of blk and erases it.
func (d *Device) retireBlock(blk flash.BlockID) (time.Duration, error) {
	for i := 0; i < d.ppb; i++ {
		p := d.chip.PageAt(blk, i)
		if d.chip.State(p) == flash.PageValid {
			if err := d.chip.Invalidate(p); err != nil {
				return 0, err
			}
		}
	}
	lat, err := d.chip.Erase(blk)
	if err != nil {
		return 0, err
	}
	d.m.FlashErases++
	d.free = append(d.free, blk)
	return lat, nil
}

func (d *Device) removeLog(lg *logBlock) {
	d.logLRU.Remove(&lg.node)
	delete(d.logs, lg.lb)
}

func (d *Device) allocBlock() (flash.BlockID, error) {
	if len(d.free) == 0 {
		return -1, fmt.Errorf("hybrid: out of free blocks")
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
			return fmt.Errorf("hybrid: truth[%d]=%d in state %v", lpn, ppn, st)
		}
		if got, ok := d.locate(int64(lpn)); !ok || got != ppn {
			return fmt.Errorf("hybrid: locate(%d) = %d,%v, truth %d", lpn, got, ok, ppn)
		}
	}
	return nil
}
