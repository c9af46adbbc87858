// Package live is the in-flight telemetry plane: a lock-free bridge between
// the single-threaded simulation goroutines (one per shard) and concurrent
// observers (HTTP scrapers, the progress sampler, expvar).
//
// The design is single-writer epoch publication. Each shard owns a Cell, one
// of the two consumers of the epochs its device builds (obs.Epoch; the JSONL
// metrics writer is the other). The shard's serving goroutine — and only that
// goroutine — stores an immutable epoch into the cell at a deterministic
// cadence (every Cell.Every served requests, a count keyed to simulated
// progress, never wall time) with one atomic pointer swap. Observers only
// Load the pointer; they never read the mutable ftl.Metrics the simulator is
// updating, so a scrape can never race the simulation or take a lock it
// holds. With no Cell attached the hot path pays a single nil check and zero
// allocations.
//
// Wall-clock discipline: this package contains no wall-clock calls at all.
// Rates, ETA and RSS live in Progress, which is computed by a sampler
// goroutine in cmd/ — the only layer allowed to see wall time — and stored
// back here atomically.
package live

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Defaults for NewPlane. DefaultEvery is the publish cadence in served
// requests per shard; DefaultRecords is the per-shard flight-recorder ring
// size.
const (
	DefaultEvery   = 1024
	DefaultRecords = 256
)

// RunInfo identifies the run the plane is currently observing.
type RunInfo struct {
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	Shards   int    `json:"shards"`
	// TotalRequests is the expected request count for the whole run
	// (warm-up included) when known, 0 otherwise. The sampler uses it for
	// the ETA estimate.
	TotalRequests int64 `json:"total_requests"`
}

// Progress is the wall-clock view of the run, computed by the cmd-side
// sampler (the only place wall time may exist) and published here so the
// scrape endpoints can serve it.
type Progress struct {
	WallUnixNS   int64   `json:"wall_unix_ns"`
	Requests     int64   `json:"requests"` // served so far, all shards
	Total        int64   `json:"total_requests,omitempty"`
	ReqPerSec    float64 `json:"requests_per_sec"`
	ETASeconds   float64 `json:"eta_seconds,omitempty"` // 0 when unknown
	PeakRSSBytes int64   `json:"peak_rss_bytes,omitempty"`
}

// Cell is one shard's telemetry mailbox. The shard's serving goroutine is
// the single writer of the epoch pointer and the recorder; the queue-stat
// fields are plain atomics written by whichever frontend admits for the
// shard. Everything an observer can reach is either atomic or immutable.
type Cell struct {
	shard int
	every int64
	rec   *Recorder

	epoch atomic.Pointer[obs.Epoch]

	// Queue stats published by the admitting frontend (atomic because the
	// sharded host admits on a different goroutine than the scraper reads).
	admitted atomic.Int64
	depthSum atomic.Int64
	maxDepth atomic.Int64
}

// Shard returns the shard index this cell observes.
func (c *Cell) Shard() int { return c.shard }

// Every returns the cell's cadence: an epoch is due every Every requests the
// shard serves.
func (c *Cell) Every() int64 { return c.every }

// Store publishes e as the cell's latest epoch. Only the shard's serving
// goroutine calls it, and e must not change afterwards.
func (c *Cell) Store(e *obs.Epoch) { c.epoch.Store(e) }

// Load returns the latest published epoch, or nil before the first one.
// Safe from any goroutine; the epoch is immutable.
func (c *Cell) Load() *obs.Epoch { return c.epoch.Load() }

// SetQueueStats publishes the admitting frontend's queueing statistics.
func (c *Cell) SetQueueStats(admitted, depthSum, maxDepth int64) {
	c.admitted.Store(admitted)
	c.depthSum.Store(depthSum)
	c.maxDepth.Store(maxDepth)
}

// QueueStats returns the frontend queueing statistics last published.
func (c *Cell) QueueStats() (admitted, depthSum, maxDepth int64) {
	return c.admitted.Load(), c.depthSum.Load(), c.maxDepth.Load()
}

// MeanDepth returns the mean in-flight depth at admission from the
// published queue stats (0 before any admission).
func (c *Cell) MeanDepth() float64 {
	a := c.admitted.Load()
	if a == 0 {
		return 0
	}
	return float64(c.depthSum.Load()) / float64(a)
}

// Recorder returns the shard's flight recorder (never nil on a plane cell).
func (c *Cell) Recorder() *Recorder { return c.rec }

// Plane owns the per-shard cells of the current run plus the run-scoped
// metadata. A single Plane outlives runs: StartRun swaps in a fresh cell set
// atomically, so a scrape racing a run boundary sees either the old or the
// new epoch set, never a mix.
type Plane struct {
	every   int64
	records int

	mu    sync.Mutex // serializes StartRun against itself only
	info  atomic.Pointer[RunInfo]
	cells atomic.Pointer[[]*Cell]
	prog  atomic.Pointer[Progress]
}

// NewPlane returns a plane publishing an epoch every `every` served requests
// per shard, with a per-shard flight-recorder ring of `records` entries.
// Non-positive arguments select the defaults.
func NewPlane(every int64, records int) *Plane {
	if every <= 0 {
		every = DefaultEvery
	}
	if records <= 0 {
		records = DefaultRecords
	}
	return &Plane{every: every, records: records}
}

// StartRun installs a fresh cell set for a run with info.Shards shards and
// returns the cells in shard order. Previous cells (if any) keep their last
// epochs until the swap and are then unreachable from the plane.
func (p *Plane) StartRun(info RunInfo) []*Cell {
	if info.Shards < 1 {
		info.Shards = 1
	}
	cells := make([]*Cell, info.Shards)
	for i := range cells {
		cells[i] = &Cell{shard: i, every: p.every, rec: NewRecorder(p.records)}
	}
	p.mu.Lock()
	p.info.Store(&info)
	p.cells.Store(&cells)
	p.mu.Unlock()
	return cells
}

// Cells returns the current run's cells (nil before the first StartRun).
func (p *Plane) Cells() []*Cell {
	if cp := p.cells.Load(); cp != nil {
		return *cp
	}
	return nil
}

// Info returns the current run's metadata (zero value before StartRun).
func (p *Plane) Info() RunInfo {
	if ip := p.info.Load(); ip != nil {
		return *ip
	}
	return RunInfo{}
}

// SetProgress publishes the sampler's wall-clock progress view.
func (p *Plane) SetProgress(pr Progress) { p.prog.Store(&pr) }

// Progress returns the last published progress view, if any.
func (p *Plane) Progress() (Progress, bool) {
	if pp := p.prog.Load(); pp != nil {
		return *pp, true
	}
	return Progress{}, false
}

// Requests sums the latest published request totals across shards — the
// sampler's progress numerator. Frontend admission counts are preferred when
// ahead of the epoch totals (epochs lag by up to the publish cadence).
func (p *Plane) Requests() int64 {
	var n int64
	for _, c := range p.Cells() {
		var cell int64
		if s := c.Load(); s != nil {
			cell = s.Total[obs.CtrRequests]
		}
		if a := c.admitted.Load(); a > cell {
			cell = a
		}
		n += cell
	}
	return n
}
