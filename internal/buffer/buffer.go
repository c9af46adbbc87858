// Package buffer implements a CFLRU data buffer (Park et al., CASES 2006)
// in front of a simulated SSD.
//
// The paper's §2.1 notes that an SSD's internal RAM is split between a data
// buffer and the mapping cache, and §4.4's clean-first replacement
// explicitly borrows CFLRU's insight: evicting a clean page is free, so
// prefer clean victims within a window of the LRU end and let dirty pages
// accumulate more updates before they cost a flash write. This package
// provides that data-buffer layer as an optional front to any ftl.Device,
// letting experiments quantify how much of TPFTL's benefit survives behind
// a write buffer.
package buffer

import (
	"fmt"
	"time"

	"repro/internal/ftl"
	"repro/internal/lru"
	"repro/internal/trace"
)

// Config parameterizes the buffer.
type Config struct {
	// Pages is the buffer capacity in flash pages.
	Pages int
	// WindowFraction is the clean-first search window as a fraction of
	// the capacity, measured from the LRU end (default 0.5, CFLRU's
	// typical setting). 0 < w ≤ 1.
	WindowFraction float64
}

// Metrics counts buffer-level events.
type Metrics struct {
	Reads       int64 // page reads issued to the buffer
	Writes      int64 // page writes issued to the buffer
	ReadHits    int64
	WriteHits   int64 // overwrites absorbed in RAM
	Fetches     int64 // read misses forwarded to the device
	Flushes     int64 // buffered dirty pages written to the device (all paths)
	CleanDrops  int64 // clean evictions (free)
	ForcedDirty int64 // dirty evictions with no clean page in the window
	FUAWrites   int64 // write-through pages forwarded for FUA requests
	TrimDrops   int64 // buffered pages dropped by TRIM (dirty ones never written)
}

type bufPage struct {
	node  lru.Node[*bufPage]
	lpn   ftl.LPN
	dirty bool
}

// Buffered wraps a device with a CFLRU page buffer.
type Buffered struct {
	dev *ftl.Device
	cfg Config

	pages map[ftl.LPN]*bufPage
	list  lru.List[*bufPage] // MRU..LRU

	pageSize int64
	clock    time.Duration
	m        Metrics
}

// New wraps dev with a CFLRU buffer.
func New(dev *ftl.Device, cfg Config) (*Buffered, error) {
	if cfg.Pages <= 0 {
		return nil, fmt.Errorf("buffer: non-positive capacity %d", cfg.Pages)
	}
	if cfg.WindowFraction == 0 {
		cfg.WindowFraction = 0.5
	}
	if cfg.WindowFraction < 0 || cfg.WindowFraction > 1 {
		return nil, fmt.Errorf("buffer: window fraction %v out of (0,1]", cfg.WindowFraction)
	}
	return &Buffered{
		dev:      dev,
		cfg:      cfg,
		pages:    make(map[ftl.LPN]*bufPage, cfg.Pages),
		pageSize: int64(dev.Config().PageSize),
	}, nil
}

// Device returns the wrapped device.
func (b *Buffered) Device() *ftl.Device { return b.dev }

// Metrics returns the buffer counters.
func (b *Buffered) Metrics() Metrics { return b.m }

// Len returns the number of buffered pages.
func (b *Buffered) Len() int { return len(b.pages) }

// DirtyLen returns the number of dirty buffered pages.
func (b *Buffered) DirtyLen() int {
	n := 0
	for e := b.list.Front(); e != nil; e = e.Next() {
		if e.Value.dirty {
			n++
		}
	}
	return n
}

// Serve executes one request through the buffer. Buffer hits cost no flash
// time; misses and writebacks are forwarded to the device as page requests
// carrying the original arrival time. FUA writes go straight through to the
// device (and stay cached clean); a flush drains every dirty buffered page
// before forwarding the barrier; a TRIM drops buffered copies of the
// discarded range — dirty ones included, their data is dead — and forwards
// the discard.
func (b *Buffered) Serve(req trace.Request) (time.Duration, error) {
	if err := req.Validate(); err != nil {
		return 0, err
	}
	arrival := time.Duration(req.Arrival)
	if arrival > b.clock {
		b.clock = arrival
	}
	switch req.Op {
	case trace.OpRead, trace.OpWrite:
		first, last := req.Pages(int(b.pageSize))
		for lpn := first; lpn <= last; lpn++ {
			var err error
			if req.Op == trace.OpWrite {
				err = b.writePage(req.Arrival, ftl.LPN(lpn))
			} else {
				err = b.readPage(req.Arrival, ftl.LPN(lpn))
			}
			if err != nil {
				return 0, err
			}
		}
	case trace.OpWriteFUA:
		first, last := req.Pages(int(b.pageSize))
		for lpn := first; lpn <= last; lpn++ {
			if err := b.writeThrough(req.Arrival, ftl.LPN(lpn)); err != nil {
				return 0, err
			}
		}
	case trace.OpTrim:
		if err := b.trim(req); err != nil {
			return 0, err
		}
	case trace.OpFlush:
		if err := b.Flush(req.Arrival); err != nil {
			return 0, err
		}
		if _, err := b.dev.Serve(req); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("buffer: unhandled request op %v", req.Op)
	}
	if dc := b.dev.Now(); dc > b.clock {
		b.clock = dc
	}
	return b.clock - arrival, nil
}

// Run serves every request.
func (b *Buffered) Run(reqs []trace.Request) error {
	for i := range reqs {
		if _, err := b.Serve(reqs[i]); err != nil {
			return fmt.Errorf("buffer: request %d: %w", i, err)
		}
	}
	return nil
}

func (b *Buffered) readPage(arrival int64, lpn ftl.LPN) error {
	b.m.Reads++
	if p, ok := b.pages[lpn]; ok {
		b.m.ReadHits++
		b.list.MoveToFront(&p.node)
		return nil
	}
	b.m.Fetches++
	if _, err := b.dev.Serve(trace.Request{
		Arrival: arrival, Offset: int64(lpn) * b.pageSize, Length: b.pageSize,
	}); err != nil {
		return err
	}
	return b.insert(arrival, lpn, false)
}

func (b *Buffered) writePage(arrival int64, lpn ftl.LPN) error {
	b.m.Writes++
	if p, ok := b.pages[lpn]; ok {
		b.m.WriteHits++
		p.dirty = true
		b.list.MoveToFront(&p.node)
		return nil
	}
	return b.insert(arrival, lpn, true)
}

// writeThrough serves one page of a FUA write: the page goes to flash
// immediately (the durability the host asked for) and stays cached clean —
// the copy just written is also the freshest, so later reads still hit.
func (b *Buffered) writeThrough(arrival int64, lpn ftl.LPN) error {
	b.m.Writes++
	b.m.FUAWrites++
	if _, err := b.dev.Serve(trace.Request{
		Arrival: arrival, Offset: int64(lpn) * b.pageSize,
		Length: b.pageSize, Op: trace.OpWriteFUA,
	}); err != nil {
		return err
	}
	if p, ok := b.pages[lpn]; ok {
		p.dirty = false
		b.list.MoveToFront(&p.node)
		return nil
	}
	return b.insert(arrival, lpn, false)
}

// trim drops every buffered copy inside the discarded range (inward page
// rounding: a partially-covered page keeps its data) and forwards the
// discard to the device. Dirty buffered pages are dropped without
// writeback — their content was just declared dead by the host.
func (b *Buffered) trim(req trace.Request) error {
	first := (req.Offset + b.pageSize - 1) / b.pageSize
	last := req.End()/b.pageSize - 1
	for lpn := first; lpn <= last; lpn++ {
		if p, ok := b.pages[ftl.LPN(lpn)]; ok {
			b.list.Remove(&p.node)
			delete(b.pages, p.lpn)
			b.m.TrimDrops++
		}
	}
	_, err := b.dev.Serve(req)
	return err
}

func (b *Buffered) insert(arrival int64, lpn ftl.LPN, dirty bool) error {
	for len(b.pages) >= b.cfg.Pages {
		if err := b.evict(arrival); err != nil {
			return err
		}
	}
	p := &bufPage{lpn: lpn, dirty: dirty}
	p.node.Value = p
	b.pages[lpn] = p
	b.list.PushFront(&p.node)
	return nil
}

// evict applies CFLRU: the first clean page within the window from the LRU
// end goes for free; with none, the LRU page is evicted, flushing if dirty.
func (b *Buffered) evict(arrival int64) error {
	window := int(float64(b.cfg.Pages) * b.cfg.WindowFraction)
	if window < 1 {
		window = 1
	}
	var victim *bufPage
	scanned := 0
	for n := b.list.Back(); n != nil && scanned < window; n = n.Prev() {
		p := n.Value
		if !p.dirty {
			victim = p
			break
		}
		scanned++
	}
	if victim == nil {
		victim = b.list.Back().Value
		if victim.dirty {
			b.m.ForcedDirty++
		}
	}
	b.list.Remove(&victim.node)
	delete(b.pages, victim.lpn)
	if !victim.dirty {
		b.m.CleanDrops++
		return nil
	}
	return b.writeback(arrival, victim)
}

// writeback writes one dirty buffered page to the device and marks it
// clean. It is the single writeback path — evictions and flush drains both
// funnel through it — so Metrics.Flushes counts every buffered page write
// reaching flash exactly once, no matter which path issued it. (The two
// paths previously duplicated this logic and could drift in accounting.)
func (b *Buffered) writeback(arrival int64, p *bufPage) error {
	b.m.Flushes++
	if _, err := b.dev.Serve(trace.Request{
		Arrival: arrival, Offset: int64(p.lpn) * b.pageSize,
		Length: b.pageSize, Op: trace.OpWrite,
	}); err != nil {
		return err
	}
	p.dirty = false
	return nil
}

// Flush writes back every dirty buffered page, LRU first. Host flush
// barriers and the end-of-run drain both use it; the pages stay cached,
// now clean.
func (b *Buffered) Flush(arrival int64) error {
	for n := b.list.Back(); n != nil; n = n.Prev() {
		p := n.Value
		if !p.dirty {
			continue
		}
		if err := b.writeback(arrival, p); err != nil {
			return err
		}
	}
	return nil
}
