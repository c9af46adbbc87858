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
	"repro/internal/trace"
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

// Device is a standalone FAST-mapped SSD simulator.
type Device struct {
	cfg  Config
	chip *flash.Chip

	blockMap []flash.BlockID // logical block → physical data block, -1
	logs     []*logBlock     // FIFO: logs[0] is the merge victim
	logMap   map[int64]logLoc
	free     []flash.BlockID

	logicalBlocks int
	ppb           int

	clock time.Duration
	m     ftl.Metrics
	fcfs  ftl.FCFS // the shared request loop, bound to this device by New

	truth []flash.PPN
}

// New builds a FAST device.
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
		logMap:        make(map[int64]logLoc),
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
	for b := 0; b < phys; b++ {
		d.free = append(d.free, flash.BlockID(b))
	}
	d.fcfs = ftl.FCFS{
		Name: "fast", Config: &d.cfg.Device, Clock: &d.clock, Metrics: &d.m,
		ReadPage: d.readPage, WritePage: d.writePage, Check: d.CheckConsistency,
	}
	return d, nil
}

// MappingTableBytes returns the RAM footprint: the block map plus the
// fully-associative page map over the log pool.
func (d *Device) MappingTableBytes() int64 {
	return int64(d.logicalBlocks)*4 + int64(d.cfg.LogBlocks)*int64(d.ppb)*8
}

// Metrics returns the accumulated counters.
func (d *Device) Metrics() ftl.Metrics { return d.m }

// LogBlocksInUse returns the current log pool occupancy.
func (d *Device) LogBlocksInUse() int { return len(d.logs) }

// Serve executes one request FCFS and returns its response time.
func (d *Device) Serve(req trace.Request) (time.Duration, error) {
	return d.fcfs.Serve(req)
}

// locate returns the newest physical page of lpn.
func (d *Device) locate(lpn int64) (flash.PPN, bool) {
	if loc, ok := d.logMap[lpn]; ok {
		return d.chip.PageAt(loc.blk, loc.off), true
	}
	lb, off := int(lpn/int64(d.ppb)), int(lpn%int64(d.ppb))
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
			return 0, fmt.Errorf("fast: lost mapping for lpn %d", lpn)
		}
		d.m.UnmappedReads++
		return 0, nil
	}
	if ppn != d.truth[lpn] {
		return 0, fmt.Errorf("fast: mistranslated lpn %d: %d vs truth %d", lpn, ppn, d.truth[lpn])
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

	// First write with a free data slot and no log version: in place.
	if _, logged := d.logMap[lpn]; !logged {
		if d.blockMap[lb] < 0 {
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

	// Update: append to the shared log pool, fully associatively.
	var acc time.Duration
	lg := d.tailLog()
	if lg == nil || lg.next >= d.ppb {
		if len(d.logs) >= d.cfg.LogBlocks {
			lat, err := d.mergeOldestLog()
			acc += lat
			if err != nil {
				return 0, err
			}
		}
		blk, err := d.allocBlock()
		if err != nil {
			return 0, err
		}
		lg = &logBlock{blk: blk}
		d.logs = append(d.logs, lg)
	}
	old, hadOld := d.locate(lpn)
	p := d.chip.PageAt(lg.blk, lg.next)
	lat, err := d.chip.Program(p, flash.Meta{Kind: flash.KindData, Tag: lpn})
	if err != nil {
		return 0, err
	}
	acc += lat
	d.m.FlashPrograms++
	if prev, ok := d.logMap[lpn]; ok {
		d.logOf(prev.blk).live--
	}
	d.logMap[lpn] = logLoc{blk: lg.blk, off: lg.next}
	lg.next++
	lg.live++
	if hadOld {
		if err := d.chip.Invalidate(old); err != nil {
			return 0, err
		}
	}
	d.truth[lpn] = p
	return acc, nil
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
			lbs[int(lpn/int64(d.ppb))] = true
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
		lat, err := d.mergeLogicalBlock(lb)
		acc += lat
		if err != nil {
			return acc, err
		}
	}
	if victim.live != 0 {
		return acc, fmt.Errorf("fast: victim log block still has %d live pages after cascade", victim.live)
	}
	lat, err := d.retireBlock(victim.blk)
	acc += lat
	if err != nil {
		return acc, err
	}
	d.logs = d.logs[1:]
	d.m.GCDataCollections++
	return acc, nil
}

// mergeLogicalBlock gathers the newest version of every page of lb — from
// its data block and from any log block — into a fresh data block.
func (d *Device) mergeLogicalBlock(lb int) (time.Duration, error) {
	newBlk, err := d.allocBlock()
	if err != nil {
		return 0, err
	}
	var acc time.Duration
	old := d.blockMap[lb]
	base := int64(lb) * int64(d.ppb)
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
		if err := d.chip.Invalidate(src); err != nil {
			return acc, err
		}
		if loc, ok := d.logMap[lpn]; ok {
			d.logOf(loc.blk).live--
			delete(d.logMap, lpn)
		}
		d.truth[lpn] = dst
	}
	if old >= 0 {
		lat, err := d.retireBlock(old)
		acc += lat
		if err != nil {
			return acc, err
		}
	}
	d.blockMap[lb] = newBlk
	return acc, nil
}

// retireBlock invalidates any remaining valid pages of blk and erases it.
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

func (d *Device) allocBlock() (flash.BlockID, error) {
	if len(d.free) == 0 {
		return -1, fmt.Errorf("fast: out of free blocks")
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
			return fmt.Errorf("fast: truth[%d]=%d in state %v", lpn, ppn, st)
		}
		if got, ok := d.locate(int64(lpn)); !ok || got != ppn {
			return fmt.Errorf("fast: locate(%d) = %d,%v, truth %d", lpn, got, ok, ppn)
		}
	}
	//ftl:orderinsensitive read-only invariant check; any violating entry is a valid witness
	for lpn, loc := range d.logMap {
		p := d.chip.PageAt(loc.blk, loc.off)
		if d.chip.State(p) != flash.PageValid {
			return fmt.Errorf("fast: logMap[%d] points at %v page", lpn, d.chip.State(p))
		}
	}
	return nil
}
