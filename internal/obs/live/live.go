// Package live is the in-flight telemetry plane: a lock-free bridge between
// the single-threaded simulation goroutines (one per shard) and concurrent
// observers (HTTP scrapers, the progress sampler, expvar).
//
// The design is single-writer epoch publication. Each shard owns a Cell; the
// shard's serving goroutine — and only that goroutine — builds an immutable
// Snapshot at a deterministic cadence (every Cell.Every served requests, a
// count keyed to simulated progress, never wall time) and publishes it with
// one atomic pointer swap. Observers only Load the pointer; they never read
// the mutable ftl.Metrics the simulator is updating, so a scrape can never
// race the simulation or take a lock it holds. With no Cell attached the hot
// path pays a single nil check and zero allocations.
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

// Snapshot is one immutable telemetry epoch for one shard. Counters are
// cumulative over the process-lifetime of the attached device: metric resets
// (warm-up) are folded into a base so every field in Total is monotonically
// non-decreasing across epochs — the Prometheus counter contract.
type Snapshot struct {
	Shard int          `json:"shard"`
	Seq   int64        `json:"seq"`    // epoch number, 1-based
	SimNS int64        `json:"sim_ns"` // simulated clock at publication
	Total obs.Counters `json:"total"`  // cumulative, monotonic
	Delta obs.Counters `json:"delta"`  // since the previous epoch
	// MaxResponseNS is a watermark, not a counter: it does not fold or sum.
	MaxResponseNS int64 `json:"max_response_ns"`
}

// HitRatio returns the cumulative translation-cache hit ratio.
func (s *Snapshot) HitRatio() float64 {
	if s.Total[obs.CtrLookups] == 0 {
		return 0
	}
	return float64(s.Total[obs.CtrHits]) / float64(s.Total[obs.CtrLookups])
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
// the single writer of the snapshot pointer and the recorder; the queue-stat
// fields are plain atomics written by whichever frontend admits for the
// shard. Everything an observer can reach is either atomic or immutable.
type Cell struct {
	shard int
	every int64
	rec   *Recorder

	// Single-writer state (the shard goroutine): the monotonic base folded
	// at each metrics reset, and the previous epoch's totals for deltas.
	base obs.Counters
	seq  int64
	prev obs.Counters

	snap atomic.Pointer[Snapshot]

	// Queue stats published by the admitting frontend (atomic because the
	// sharded host admits on a different goroutine than the scraper reads).
	admitted atomic.Int64
	depthSum atomic.Int64
	maxDepth atomic.Int64
}

// Shard returns the shard index this cell observes.
func (c *Cell) Shard() int { return c.shard }

// Due reports whether the shard should publish an epoch after serving its
// requests-th request. The cadence is a pure function of the served-request
// count, so telemetry-on and telemetry-off runs make identical simulation
// decisions. Zero-alloc: one modulo on two int64s.
func (c *Cell) Due(requests int64) bool {
	return c.every > 0 && requests > 0 && requests%c.every == 0
}

// Publish builds and atomically publishes a new epoch from the shard's
// cumulative counters since its last metrics reset. Must be called only by
// the shard's serving goroutine (single writer).
func (c *Cell) Publish(simNS int64, cur obs.Counters, maxResponseNS int64) {
	total := c.base.Add(cur)
	c.seq++
	s := &Snapshot{
		Shard:         c.shard,
		Seq:           c.seq,
		SimNS:         simNS,
		Total:         total,
		Delta:         total.Sub(c.prev),
		MaxResponseNS: maxResponseNS,
	}
	c.prev = total
	c.snap.Store(s)
}

// FoldBase absorbs the pre-reset cumulative counters into the monotonic
// base. Call immediately before a metrics reset (after a final Publish), so
// published totals keep growing across warm-up resets. Single-writer.
func (c *Cell) FoldBase(cur obs.Counters) { c.base = c.base.Add(cur) }

// Load returns the latest published epoch, or nil before the first one.
// Safe from any goroutine; the snapshot is immutable.
func (c *Cell) Load() *Snapshot { return c.snap.Load() }

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
