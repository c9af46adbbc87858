// Package fast implements a FAST-style fully-associative log-buffer hybrid
// FTL (Lee et al., "A log buffer-based flash translation layer using
// fully-associative sector translation", TECS 2007 — the paper's citation
// [23]).
//
// Where BAST dedicates one log block per logical block (internal/ftl/hybrid),
// FAST shares its log-block pool among all logical blocks: updates append to
// the current log block regardless of origin, so a log block fills before a
// merge is forced even under widely scattered writes. The price is merge
// cascades: reclaiming the oldest log block requires a full merge of every
// logical block that still has a live page in it. FAST therefore trades
// BAST's frequent cheap merges for rare expensive ones — the §2.1 hybrid
// design space in one more point.
package fast

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
)

// Config parameterizes the FAST device.
type Config struct {
	// Device geometry; see ftl.Config.
	Device ftl.Config
	// LogBlocks is the shared log pool size (default 8).
	LogBlocks int
}

// logLoc locates the newest log copy of a logical page.
type logLoc struct {
	blk flash.BlockID
	off int
}

// logBlock is one shared, fully-associative log block.
type logBlock struct {
	blk  flash.BlockID
	next int // append pointer
	live int // pages in this block still referenced by logMap
}

// Device is a standalone FAST-mapped SSD simulator: the shared block-mapped
// substrate plus FAST's shared log FIFO.
type Device struct {
	ftl.BlockMapped

	logBlocks int
	logs      []*logBlock // FIFO: logs[0] is the merge victim
	logMap    map[int64]logLoc
}

// New builds a FAST device.
func New(cfg Config) (*Device, error) {
	if cfg.LogBlocks == 0 {
		cfg.LogBlocks = 8
	}
	d := &Device{logBlocks: cfg.LogBlocks, logMap: make(map[int64]logLoc)}
	if err := d.Init("fast", cfg.Device, cfg.LogBlocks, d.locate, d.writePage); err != nil {
		return nil, err
	}
	return d, nil
}

// LogBlocksInUse returns the current log pool occupancy.
func (d *Device) LogBlocksInUse() int { return len(d.logs) }

// locate returns the newest physical page of lpn.
func (d *Device) locate(lpn int64) (flash.PPN, bool) {
	if loc, ok := d.logMap[lpn]; ok {
		return d.Flash.PageAt(loc.blk, loc.off), true
	}
	return d.HomePage(lpn)
}

func (d *Device) writePage(lpn int64) (time.Duration, error) {
	// First write with a free data slot and no log version: in place.
	if _, logged := d.logMap[lpn]; !logged {
		if lat, ok, err := d.WriteHome(lpn); ok || err != nil {
			return lat, err
		}
	}

	// Update: append to the shared log pool, fully associatively.
	var acc time.Duration
	lg := d.tailLog()
	if lg == nil || lg.next >= d.PPB {
		if len(d.logs) >= d.logBlocks {
			lat, err := d.mergeOldestLog()
			acc += lat
			if err != nil {
				return 0, err
			}
		}
		blk, err := d.AllocBlock()
		if err != nil {
			return 0, err
		}
		lg = &logBlock{blk: blk}
		d.logs = append(d.logs, lg)
	}
	lat, err := d.Update(lpn, d.Flash.PageAt(lg.blk, lg.next))
	if err != nil {
		return 0, err
	}
	if prev, ok := d.logMap[lpn]; ok {
		d.logOf(prev.blk).live--
	}
	d.logMap[lpn] = logLoc{blk: lg.blk, off: lg.next}
	lg.next++
	lg.live++
	return acc + lat, nil
}

func (d *Device) tailLog() *logBlock {
	if len(d.logs) == 0 {
		return nil
	}
	return d.logs[len(d.logs)-1]
}

func (d *Device) logOf(blk flash.BlockID) *logBlock {
	for _, lg := range d.logs {
		if lg.blk == blk {
			return lg
		}
	}
	return nil
}

// mergeOldestLog reclaims logs[0]: every logical block with a live page in
// it is fully merged — FAST's merge cascade.
func (d *Device) mergeOldestLog() (time.Duration, error) {
	victim := d.logs[0]
	var acc time.Duration
	// Collect the logical blocks whose newest version lives in the victim.
	lbs := map[int]bool{}
	for lpn, loc := range d.logMap {
		if loc.blk == victim.blk {
			lbs[int(lpn/int64(d.PPB))] = true
		}
	}
	// Merge in ascending logical-block order: each merge allocates pages
	// and issues flash ops, so map order here would permute the schedule.
	order := make([]int, 0, len(lbs))
	for lb := range lbs {
		order = append(order, lb)
	}
	sort.Ints(order)
	for _, lb := range order {
		lat, err := d.Merge(lb)
		acc += lat
		if err != nil {
			return acc, err
		}
		// Every page of lb now lives in its new data block.
		for lpn := int64(lb) * int64(d.PPB); lpn < int64(lb+1)*int64(d.PPB); lpn++ {
			if loc, ok := d.logMap[lpn]; ok {
				d.logOf(loc.blk).live--
				delete(d.logMap, lpn)
			}
		}
	}
	if victim.live != 0 {
		return acc, fmt.Errorf("fast: victim log block still has %d live pages after cascade", victim.live)
	}
	lat, err := d.RetireBlock(victim.blk)
	acc += lat
	if err != nil {
		return acc, err
	}
	d.logs = d.logs[1:]
	d.M.GCDataCollections++
	return acc, nil
}
