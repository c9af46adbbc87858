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
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/lru"
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

// Device is a standalone hybrid-mapped SSD simulator: the shared
// block-mapped substrate plus BAST's per-block log pool.
type Device struct {
	ftl.BlockMapped

	logBlocks int
	logs      map[int]*logBlock
	logLRU    lru.List[*logBlock] // MRU..LRU log blocks
}

// New builds a hybrid device.
func New(cfg Config) (*Device, error) {
	if cfg.LogBlocks == 0 {
		cfg.LogBlocks = 8
	}
	d := &Device{logBlocks: cfg.LogBlocks, logs: make(map[int]*logBlock)}
	if err := d.Init("hybrid", cfg.Device, cfg.LogBlocks, d.locate, d.writePage); err != nil {
		return nil, err
	}
	return d, nil
}

// locate returns the newest physical page of lpn.
func (d *Device) locate(lpn int64) (flash.PPN, bool) {
	if lg := d.logs[int(lpn/int64(d.PPB))]; lg != nil {
		if lo, ok := lg.latest[int(lpn%int64(d.PPB))]; ok {
			return d.Flash.PageAt(lg.blk, lo), true
		}
	}
	return d.HomePage(lpn)
}

func (d *Device) writePage(lpn int64) (time.Duration, error) {
	lb, off := int(lpn/int64(d.PPB)), int(lpn%int64(d.PPB))

	// First write of this page with the data-block slot free: write in
	// place (fixed offset), provided no newer version sits in a log.
	if lg := d.logs[lb]; lg == nil || !hasOff(lg, off) {
		if lat, ok, err := d.WriteHome(lpn); ok || err != nil {
			return lat, err
		}
	}

	// Update: append to the logical block's log block.
	lg, acc, err := d.logFor(lb)
	if err != nil {
		return 0, err
	}
	if lg.next >= d.PPB {
		// Log full: merge, then retry as a fresh update.
		lat, err := d.merge(lg)
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
	lat, err := d.Update(lpn, d.Flash.PageAt(lg.blk, lg.next))
	if err != nil {
		return 0, err
	}
	lg.latest[off] = lg.next
	lg.next++
	d.logLRU.MoveToFront(&lg.node)
	return acc + lat, nil
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
	for len(d.logs) >= d.logBlocks {
		lat, err := d.merge(d.logLRU.Back().Value)
		acc += lat
		if err != nil {
			return nil, acc, err
		}
	}
	blk, err := d.AllocBlock()
	if err != nil {
		return nil, acc, err
	}
	lg := &logBlock{lb: lb, blk: blk, latest: make(map[int]int)}
	lg.node.Value = lg
	d.logs[lb] = lg
	d.logLRU.PushFront(&lg.node)
	return lg, acc, nil
}

// merge consolidates the newest page versions of lg's logical block into
// one block. A switch merge (the log block holds every page at its home
// offset) promotes the log block to data block; otherwise the substrate's
// full merge copies into a fresh block and the log block is retired.
func (d *Device) merge(lg *logBlock) (acc time.Duration, err error) {
	if d.isSwitchable(lg) {
		// Switch merge: the log block IS the new data block.
		if old := d.BlockMap[lg.lb]; old >= 0 {
			acc, err = d.RetireBlock(old)
		}
		d.BlockMap[lg.lb] = lg.blk
	} else if acc, err = d.Merge(lg.lb); err == nil {
		var lat time.Duration
		lat, err = d.RetireBlock(lg.blk)
		acc += lat
	}
	if err != nil {
		return acc, err
	}
	d.logLRU.Remove(&lg.node)
	delete(d.logs, lg.lb)
	d.M.GCDataCollections++
	return acc, nil
}

// isSwitchable reports whether every page of the logical block sits in the
// log block at its home offset (a sequentially rewritten block).
func (d *Device) isSwitchable(lg *logBlock) bool {
	if len(lg.latest) != d.PPB {
		return false
	}
	for off, lo := range lg.latest {
		if off != lo {
			return false
		}
	}
	return true
}
