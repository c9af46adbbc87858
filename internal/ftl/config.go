package ftl

import (
	"time"

	"repro/internal/flash"
)

// Default flash geometry (the paper's Table 3 configuration). Anything that
// needs a page size without a Config in hand — translator constructors sizing
// cache slots, capacity math in the harness — should name these rather than
// repeat the numbers.
const (
	// DefaultPageBytes is the default flash page size (4 KB).
	DefaultPageBytes = 4096
	// DefaultEntriesPerTP is the number of 4 B mapping entries in one
	// translation page of the default geometry.
	DefaultEntriesPerTP = DefaultPageBytes / EntryBytesInFlash
	// DefaultChannels and DefaultDies are the parallelism of the paper's
	// single-chip device: one channel, one die. The multi-channel backend
	// (internal/ssd) is opt-in precisely so that this default reproduces
	// the paper's scalar-clock timing bit-for-bit.
	DefaultChannels = 1
	// DefaultDies is the default number of dies per channel.
	DefaultDies = 1
	// MaxChannels bounds Config.Channels; Metrics carries a fixed-size
	// per-channel busy-time array so it stays a comparable value type.
	MaxChannels = 16
)

// Config describes a simulated SSD.
type Config struct {
	// LogicalBytes is the advertised device capacity.
	LogicalBytes int64
	// PageSize and PagesPerBlock set flash geometry (default Table 3:
	// 4 KB pages, 64 pages/block).
	PageSize      int
	PagesPerBlock int
	// OverProvision is the fraction of extra physical capacity
	// (default 0.15 per Table 3).
	OverProvision float64
	// Channels and Dies set the parallel backend's geometry: Channels
	// independent buses with Dies flash dies each (defaults
	// DefaultChannels × DefaultDies = 1×1, the paper's serial chip).
	// Blocks interleave across dies and the block manager stripes
	// consecutive page allocations across channels, so independent flash
	// operations overlap in simulated time (see internal/ssd).
	Channels int
	Dies     int
	// ReadLatency, WriteLatency, EraseLatency override the flash timing
	// when non-zero.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	EraseLatency time.Duration
	// CacheBytes is the mapping-cache budget available to the Translator.
	// The GTD is not charged against it (the paper sizes the cache as
	// "block-level table plus the GTD", holding the GTD resident).
	// Zero selects DefaultCacheBytes(LogicalBytes).
	CacheBytes int64
	// GCPolicy selects the victim-selection policy (default GCGreedy).
	GCPolicy GCPolicy
	// WearLevelThreshold, when non-zero, enables static wear leveling:
	// whenever the erase-count spread (hottest block minus coldest block)
	// exceeds the threshold during GC, the coldest block's content is
	// migrated so the block rejoins circulation (§2.3's wear-leveling
	// discussion).
	WearLevelThreshold int
	// EraseLimit, if non-zero, injects endurance failures (see flash.Config).
	EraseLimit int
	// FaultRetries bounds how many times the device retries one flash
	// operation after a transient injected fault before surfacing the
	// error (0 selects 3). See flash.FaultPlan.
	FaultRetries int
}

// GCPolicy selects how garbage collection picks victim blocks.
type GCPolicy uint8

const (
	// GCGreedy picks the block with the most invalid pages — minimal
	// immediate migration cost, the policy of the paper's evaluation.
	GCGreedy GCPolicy = iota
	// GCCostBenefit picks the block maximizing age*(1-u)/(2u), the
	// classic cost-benefit policy (Kawaguchi et al.): it prefers older
	// blocks whose pages are likelier to stay valid, trading a little
	// immediate cost for fewer re-migrations of cold data.
	GCCostBenefit
)

func (p GCPolicy) String() string {
	switch p {
	case GCGreedy:
		return "greedy"
	case GCCostBenefit:
		return "cost-benefit"
	default:
		return "GCPolicy(?)"
	}
}

// DefaultConfig returns the paper's SSD configuration for the given logical
// capacity.
func DefaultConfig(logicalBytes int64) Config {
	return Config{
		LogicalBytes:  logicalBytes,
		PageSize:      DefaultPageBytes,
		PagesPerBlock: 64,
		OverProvision: 0.15,
		ReadLatency:   25 * time.Microsecond,
		WriteLatency:  200 * time.Microsecond,
		EraseLatency:  1500 * time.Microsecond,
		CacheBytes:    DefaultCacheBytes(logicalBytes),
	}
}

// DefaultCacheBytes returns the paper's cache-size convention: the size of a
// block-level FTL's mapping table for the same capacity (4 B per 256 KB
// block). This yields 8 KB for a 512 MB device and 256 KB for 16 GB,
// matching §5.1.
func DefaultCacheBytes(logicalBytes int64) int64 {
	blockBytes := int64(DefaultPageBytes * 64)
	blocks := (logicalBytes + blockBytes - 1) / blockBytes
	return blocks * 4
}

// normalize fills defaults and derives sizes.
func (c Config) normalize() Config {
	if c.PageSize == 0 {
		c.PageSize = DefaultPageBytes
	}
	if c.PagesPerBlock == 0 {
		c.PagesPerBlock = 64
	}
	if c.OverProvision == 0 {
		c.OverProvision = 0.15
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes(c.LogicalBytes)
	}
	if c.ReadLatency == 0 {
		c.ReadLatency = 25 * time.Microsecond
	}
	if c.WriteLatency == 0 {
		c.WriteLatency = 200 * time.Microsecond
	}
	if c.EraseLatency == 0 {
		c.EraseLatency = 1500 * time.Microsecond
	}
	if c.Channels == 0 {
		c.Channels = DefaultChannels
	}
	if c.Dies == 0 {
		c.Dies = DefaultDies
	}
	return c
}

// LogicalPages returns the number of logical pages the device advertises.
func (c Config) LogicalPages() int64 {
	ps := c.PageSize
	if ps == 0 {
		ps = DefaultPageBytes
	}
	return c.LogicalBytes / int64(ps)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	c = c.normalize()
	switch {
	case c.LogicalBytes <= 0:
		return errf("non-positive logical capacity %d", c.LogicalBytes)
	case c.LogicalBytes%int64(c.PageSize) != 0:
		return errf("logical capacity %d not page aligned", c.LogicalBytes)
	case c.OverProvision < 0:
		return errf("negative over-provisioning %v", c.OverProvision)
	case c.CacheBytes < 0:
		return errf("negative cache budget %d", c.CacheBytes)
	case c.Channels < 0 || c.Dies < 0:
		return errf("negative parallelism %d×%d", c.Channels, c.Dies)
	case c.Channels > MaxChannels:
		return errf("%d channels exceeds MaxChannels %d", c.Channels, MaxChannels)
	}
	if c.LogicalPages() == 0 {
		return errf("capacity smaller than one page")
	}
	return nil
}

// flashConfig derives the physical chip configuration. Physical capacity is
// the logical capacity plus over-provisioning, plus room for the mapping
// table itself (translation pages live in flash too) and a small GC reserve.
func (c Config) flashConfig() flash.Config {
	logicalPages := c.LogicalPages()
	dataBlocks := (logicalPages + int64(c.PagesPerBlock) - 1) / int64(c.PagesPerBlock)
	entriesPerTP := int64(c.PageSize / EntryBytesInFlash)
	numTPs := (logicalPages + entriesPerTP - 1) / entriesPerTP
	transBlocks := (numTPs + int64(c.PagesPerBlock) - 1) / int64(c.PagesPerBlock)
	total := dataBlocks + transBlocks
	phys := total + int64(float64(total)*c.OverProvision)
	if min := total + int64(c.gcThreshold())*2 + 2; phys < min {
		phys = min
	}
	// Every die needs room for open frontiers and a couple of free blocks,
	// or a many-die configuration on a tiny device starves per-die pools.
	if dies := c.Channels * c.Dies; dies > 1 {
		if min := total + int64(dies)*3; phys < min {
			phys = min
		}
	}
	return flash.Config{
		PageSize:       c.PageSize,
		PagesPerBlock:  c.PagesPerBlock,
		NumBlocks:      int(phys),
		Channels:       c.Channels,
		DiesPerChannel: c.Dies,
		ReadLatency:    c.ReadLatency,
		WriteLatency:   c.WriteLatency,
		EraseLatency:   c.EraseLatency,
		EraseLimit:     c.EraseLimit,
	}
}

// gcThreshold is the free-block count that triggers garbage collection:
// max(4, 1% of the logical blocks).
func (c Config) gcThreshold() int {
	logicalPages := c.LogicalPages()
	blocks := int(logicalPages / int64(c.PagesPerBlock))
	t := blocks / 100
	if t < 4 {
		t = 4
	}
	return t
}
