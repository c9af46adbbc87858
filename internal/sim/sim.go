// Package sim builds simulated SSDs, drives them with workloads and
// collects the measurements the TPFTL paper's evaluation reports. It is the
// layer underneath cmd/experiments, cmd/ftlsim and the public tpftl package.
package sim

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/ftl/cdftl"
	"repro/internal/ftl/dftl"
	"repro/internal/ftl/optimal"
	"repro/internal/ftl/sftl"
	"repro/internal/ftl/zftl"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scheme names an FTL policy.
type Scheme string

// The schemes of the paper's evaluation (§5.1) plus CDFTL (§2.2).
const (
	SchemeDFTL    Scheme = "DFTL"
	SchemeTPFTL   Scheme = "TPFTL"
	SchemeSFTL    Scheme = "S-FTL"
	SchemeCDFTL   Scheme = "CDFTL"
	SchemeZFTL    Scheme = "ZFTL"
	SchemeOptimal Scheme = "Optimal"
)

// Schemes returns the paper's comparison set in figure order.
func Schemes() []Scheme {
	return []Scheme{SchemeDFTL, SchemeTPFTL, SchemeSFTL, SchemeOptimal}
}

// Options configures one simulation run.
type Options struct {
	// Scheme selects the FTL policy.
	Scheme Scheme
	// TPFTL optionally overrides the TPFTL configuration (ablation
	// variants, hotness ordering, compression); its CacheBytes is filled
	// from the run's budget when zero. Ignored for other schemes.
	TPFTL *core.Config

	// Profile is the workload; AddressSpace (if non-zero) rescales it.
	Profile      workload.Profile
	AddressSpace int64
	// Requests is the number of generated requests.
	Requests int
	// Seed makes the run deterministic.
	Seed int64
	// Trace, if non-nil, is replayed instead of generating from Profile.
	Trace []trace.Request
	// TraceStream, if non-nil, is a streamed request source replayed
	// instead of Trace or a generated workload, so resident memory is
	// independent of the trace's length. The simulated results are
	// bit-for-bit those of the same requests passed through Trace. The
	// iterator is consumed once (warm-up prefix first when ResetAfterWarmup
	// is set); mutually exclusive with Trace.
	TraceStream trace.Iterator
	// StreamBatch is the number of requests pulled from the source — any
	// source: TraceStream, Trace or the generated workload — per batch
	// (default DefaultStreamBatch, 4096, whatever Shards is). Two or more
	// shards are handed their fragments in sixteenths of it, a ring of
	// sixteen chunks per client lane. The host allocates its buffers once
	// per run: the warm-up and the measured phase share them
	// (host.ReplayOptions.Batch). A wall-clock/memory knob only: simulated
	// results are independent of it.
	StreamBatch int

	// CacheBytes is the mapping-cache budget. Zero selects the paper's
	// convention (block-level table size) unless CacheFraction is set.
	CacheBytes int64
	// CacheFraction, if non-zero, sets the budget to this fraction of the
	// full page-level mapping table (8 B per entry), the Fig. 8c/9/10
	// x-axis. 1/128 equals the default convention.
	CacheFraction float64

	// PagesPerBlock overrides the flash geometry (default 64).
	PagesPerBlock int
	// Channels and Dies select the parallel backend's geometry (defaults
	// ftl.DefaultChannels × ftl.DefaultDies — the paper's serial chip).
	Channels int
	Dies     int
	// Shards is the number of independent FTL instances the LPN space is
	// striped across (internal/host) — per-shard translator, mapping cache,
	// GC and scheduler clock. 0 and 1 are the same run: one device, served
	// on the calling goroutine. Two or more are served by concurrent
	// per-shard workers.
	Shards int
	// Clients is the number of submitter lanes feeding the shard workers
	// (minimum, and default, one per shard). The client topology is a
	// wall-clock knob only: simulated results are bit-for-bit independent
	// of it. One shard has no lanes, so there Clients has nothing to feed.
	Clients int
	// QueueDepth bounds in-flight requests (closed loop; per shard when
	// sharded). 0 selects 1, the scalar-clock compatibility default,
	// unless OpenLoop is set.
	QueueDepth int
	// OpenLoop admits every request at its trace arrival time instead of
	// waiting for a queue slot; QueueDepth is ignored.
	OpenLoop bool
	// GCPolicy selects the device's GC victim policy (default greedy).
	GCPolicy ftl.GCPolicy
	// WearLevelThreshold enables static wear leveling (see ftl.Config).
	WearLevelThreshold int
	// Precondition ages the device before measuring: this many passes of
	// uniformly random whole-device rewrites bring garbage collection to
	// its organic steady state (a freshly formatted device starts with
	// every block fully valid, which inflates early GC cost far beyond
	// what a long-running SSD shows). 0 disables.
	Precondition float64
	// SampleEvery enables cache sampling every N page accesses (Fig. 1/2).
	// Like Faults, MetricsOut and TraceOut it is per-device: accepted with
	// one shard, rejected with more.
	SampleEvery int64
	// ResetAfterWarmup, if > 0, serves this many leading requests as
	// warm-up and zeroes the metrics before the measured phase.
	ResetAfterWarmup int

	// Faults, if non-nil, is armed on the chip after formatting,
	// preconditioning and warm-up, so fault indexes land in the measured
	// workload. Transient faults exercise the device's bounded-retry path
	// (Metrics.InjectedFaults / FaultRetries); a power-cut plan makes the
	// run fail with flash.ErrPowerCut — use RunCrash to verify recovery
	// instead.
	Faults *flash.FaultPlan

	// MetricsOut, if non-nil, receives a JSONL metrics snapshot (counter
	// deltas + per-phase latency quantiles) every MetricsInterval measured
	// requests (default 1000). TraceOut, if non-nil, receives the run's
	// flash-operation span trace in Chrome trace_event JSON (open in
	// Perfetto). Both are armed after warm-up, cover only the measured
	// phase, and leave every simulated metric bit-for-bit unchanged.
	MetricsOut      io.Writer
	MetricsInterval int
	TraceOut        io.Writer

	// Telemetry, if non-nil, is the live scrape plane: the run installs one
	// cell per shard (StartRun) and each shard publishes immutable metric
	// epochs, frontend queue stats and flight-recorder entries into its cell
	// as it serves — readable concurrently through the plane's HTTP/expvar
	// surfaces while the run is in flight. Publication cadence is keyed to
	// served-request counts, so every simulated metric, EventHash and Digest
	// is bit-for-bit identical with the plane attached or not.
	Telemetry *live.Plane
}

// Sample is one cache-distribution observation (Fig. 1/2 instrumentation).
type Sample struct {
	PageAccesses int64
	Entries      int
	TPNodes      int
	DirtyEntries int
	// DirtyHist counts cached translation pages by their number of dirty
	// entries.
	DirtyHist map[int]int
}

// Result is the outcome of one run.
type Result struct {
	Scheme     Scheme
	Variant    string // TPFTL ablation monogram, "" otherwise
	Workload   string
	CacheBytes int64
	M          ftl.Metrics
	Samples    []Sample
	TraceStats trace.Stats
	// Shards holds the per-shard results in shard order: always at least
	// one entry (a one-device run is one shard, whose M equals Result.M).
	Shards []ShardRun
	// Digest folds the per-shard event hashes into one value that is
	// insensitive to how shard executions interleaved in wall time (see
	// host.Digest). Always set.
	Digest uint64
}

// ShardRun is one shard's slice of a run's outcome: its device's
// measured-phase metrics, its scheduler's order-sensitive event hash and its
// admission queue's statistics.
type ShardRun = host.ShardResult

// FullTableBytes returns the size of the entire page-level mapping table for
// an address space (8 B per entry), the unit of Options.CacheFraction.
func FullTableBytes(addressSpace int64) int64 {
	return addressSpace / ftl.DefaultPageBytes * ftl.EntryBytesRAM
}

// DefaultStreamBatch is the batch size of a replay when Options.StreamBatch
// is zero.
const DefaultStreamBatch = 4096

// source is a run's request stream behind one interface, with what is known
// about it before the first request is pulled.
type source struct {
	it trace.Iterator
	// maxEnd is the address high-water hint that bounds the preconditioning
	// footprint, 0 if unknown: a replayed trace's own (a streamed source's
	// header hint, when it carries one — no pre-pass over the file), never a
	// generated workload's, whose profile states its footprint.
	maxEnd int64
	// records is the total request count, 0 if unknown — the live plane's
	// ETA denominator.
	records int64
}

// openSource adapts whichever of TraceStream, Trace or the generated
// workload the options select.
func openSource(o Options, profile workload.Profile) (source, error) {
	switch {
	case o.Trace != nil && o.TraceStream != nil:
		return source{}, fmt.Errorf("sim: Trace and TraceStream are mutually exclusive")
	case o.TraceStream != nil:
		src := source{it: o.TraceStream}
		if m, ok := o.TraceStream.(interface{ MaxEnd() int64 }); ok {
			src.maxEnd = m.MaxEnd()
		}
		if r, ok := o.TraceStream.(interface{ Records() int64 }); ok {
			src.records = r.Records()
		}
		return src, nil
	case o.Trace != nil:
		return source{
			it:      trace.NewSliceIterator(o.Trace),
			maxEnd:  trace.Summarize(o.Trace).MaxEnd,
			records: int64(len(o.Trace)),
		}, nil
	}
	reqs, err := workload.Generate(profile, o.Requests, o.Seed)
	if err != nil {
		return source{}, err
	}
	return source{it: trace.NewSliceIterator(reqs), records: int64(len(reqs))}, nil
}

// statsIter passes batches through from a source while folding each request
// into a StatsAccum. Only the goroutine driving the replay calls Next, so the
// accumulator needs no synchronization.
type statsIter struct {
	it  trace.Iterator
	acc trace.StatsAccum
}

func (s *statsIter) Next(batch []trace.Request) (int, error) {
	n, err := s.it.Next(batch)
	for i := 0; i < n; i++ {
		s.acc.Add(batch[i])
	}
	return n, err
}

// NewTranslator constructs the translator for a scheme.
func NewTranslator(s Scheme, cacheBytes int64, logicalPages int64, tpftlCfg *core.Config) (ftl.Translator, error) {
	switch s {
	case SchemeDFTL:
		return dftl.New(dftl.Config{CacheBytes: cacheBytes}), nil
	case SchemeSFTL:
		return sftl.New(sftl.Config{CacheBytes: cacheBytes}), nil
	case SchemeCDFTL:
		return cdftl.New(cdftl.Config{CacheBytes: cacheBytes}), nil
	case SchemeZFTL:
		return zftl.New(zftl.Config{CacheBytes: cacheBytes}), nil
	case SchemeOptimal:
		return optimal.New(logicalPages), nil
	case SchemeTPFTL:
		cfg := core.DefaultConfig(cacheBytes)
		if tpftlCfg != nil {
			cfg = *tpftlCfg
			if cfg.CacheBytes == 0 {
				cfg.CacheBytes = cacheBytes
			}
		}
		return core.New(cfg), nil
	default:
		return nil, fmt.Errorf("sim: unknown scheme %q", s)
	}
}

// Run executes one simulation. There is one request path: the source
// (TraceStream, Trace or the generated workload, behind one iterator) is
// pulled by the host, which admits every request through an ssd.Admitter
// into its shard's device — one shard unless Options.Shards asks for more.
func Run(o Options) (*Result, error) {
	space := o.Profile.AddressSpace
	if o.AddressSpace != 0 {
		space = o.AddressSpace
	}
	if space <= 0 {
		return nil, fmt.Errorf("sim: no address space configured")
	}
	profile := o.Profile.Scale(space)

	cacheBytes := o.CacheBytes
	if o.CacheFraction > 0 {
		cacheBytes = int64(float64(FullTableBytes(space)) * o.CacheFraction)
	}
	if cacheBytes == 0 {
		cacheBytes = ftl.DefaultCacheBytes(space)
	}

	devCfg := ftl.DefaultConfig(space)
	devCfg.CacheBytes = cacheBytes
	devCfg.GCPolicy = o.GCPolicy
	devCfg.WearLevelThreshold = o.WearLevelThreshold
	if o.PagesPerBlock != 0 {
		devCfg.PagesPerBlock = o.PagesPerBlock
	}
	devCfg.Channels = o.Channels
	devCfg.Dies = o.Dies

	n := max(o.Shards, 1)
	if n > 1 {
		// Samples, exports and fault plans attach to one device; spreading
		// them over several is ROADMAP item 2.
		switch {
		case o.SampleEvery > 0:
			return nil, fmt.Errorf("sim: cache sampling is per-device; not supported with Shards")
		case o.MetricsOut != nil || o.TraceOut != nil:
			return nil, fmt.Errorf("sim: observability export is per-device; not supported with Shards")
		case o.Faults != nil:
			return nil, fmt.Errorf("sim: fault plans are per-device; not supported with Shards")
		}
	}
	src, err := openSource(o, profile)
	if err != nil {
		return nil, err
	}
	it := &statsIter{it: src.it}

	lay, cfgs, err := host.ShardConfigs(devCfg, n)
	if err != nil {
		return nil, err
	}
	tpftlCfg := o.TPFTL
	if tpftlCfg != nil && tpftlCfg.CacheBytes > 0 && n > 1 {
		// The TPFTL override's explicit cache budget is a whole-device
		// number; split it like the implicit budget so ablation variants
		// shard fairly.
		cfg := *tpftlCfg
		cfg.CacheBytes = max(cfg.CacheBytes/int64(n), ftl.EntryBytesRAM)
		tpftlCfg = &cfg
	}
	// Age only the workload's footprint: the cold remainder stays in its
	// pristine fully-valid blocks, exactly where a long-running device's GC
	// would have consolidated it. Each shard ages its own image of the
	// footprint: the striping is chunk-interleaved, so a footprint prefix of
	// the global space maps to a prefix of every shard's local space.
	footBytes := profile.FootprintBytes()
	if src.maxEnd > 0 && src.maxEnd < footBytes {
		footBytes = src.maxEnd
	}
	footPages := footBytes / int64(devCfg.PageSize)

	// Every shard is an independent device for its whole life — own
	// translator, chip, block manager and seed — so each is built, formatted,
	// aged and warmed on its own goroutine (see perShard).
	devs := make([]*ftl.Device, n)
	trs := make([]ftl.Translator, n)
	err = perShard(n, func(s int) error {
		image := lay.ImagePages(s, footPages)
		var err error
		devs[s], trs[s], err = newDevice(o.Scheme, cfgs[s], tpftlCfg, int(o.Precondition*float64(image)), image, o.Seed+1+int64(s))
		return err
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Scheme:     o.Scheme,
		Workload:   profile.Name,
		CacheBytes: cacheBytes,
	}
	if t, ok := trs[0].(*core.FTL); ok {
		res.Variant = t.Variant()
	}
	if insp, ok := trs[0].(ftl.Inspector); ok && o.SampleEvery > 0 {
		devs[0].SampleEvery = o.SampleEvery
		devs[0].OnSample = func(n int64) {
			s := insp.Snapshot()
			sample := Sample{
				PageAccesses: n,
				Entries:      s.Entries,
				TPNodes:      s.TPNodes,
				DirtyEntries: s.DirtyEntries,
				DirtyHist:    map[int]int{},
			}
			for _, d := range s.DirtyPerPage {
				sample.DirtyHist[d]++
			}
			res.Samples = append(res.Samples, sample)
		}
	}

	h, err := host.New(lay, devs, host.Options{QueueDepth: o.QueueDepth, OpenLoop: o.OpenLoop})
	if err != nil {
		return nil, err
	}
	if o.Telemetry != nil {
		// One cell per shard; warm-up and the measured phase both publish
		// (each device folds the warm-up reset into the totals it publishes).
		h.SetLive(o.Telemetry.StartRun(live.RunInfo{
			Scheme:        string(o.Scheme),
			Workload:      profile.Name,
			Shards:        n,
			TotalRequests: src.records,
		}))
	}
	replay := host.ReplayOptions{Clients: o.Clients, Batch: o.StreamBatch}
	if replay.Batch <= 0 {
		replay.Batch = DefaultStreamBatch
	}

	if warm := o.ResetAfterWarmup; warm > 0 {
		// Limit does not advance the source past the prefix, so the
		// measured phase continues from the same iterator.
		if err := h.Warm(trace.Limit(it, int64(warm)), replay); err != nil {
			return nil, fmt.Errorf("sim: %s/%s warm-up: %w", o.Scheme, profile.Name, err)
		}
		_ = perShard(n, func(s int) error {
			devs[s].ResetMetrics()
			return nil
		})
	}
	// Faults and the observability sinks are armed only for the measured
	// phase (after warm-up's ResetMetrics), so fault indexes land in — and
	// exports describe — what the result reports. All three are per-device:
	// the guard above left exactly one.
	if o.Faults != nil {
		devs[0].Chip().SetFaultPlan(o.Faults)
	}
	if o.TraceOut != nil {
		devs[0].SetTracer(obs.NewTracer(o.TraceOut))
	}
	if o.MetricsOut != nil {
		interval := o.MetricsInterval
		if interval <= 0 {
			interval = 1000
		}
		devs[0].SetMetricsExport(o.MetricsOut, int64(interval))
	}

	out, err := h.ReplayStream(it, replay)
	// The sinks take their last epochs and flush on a failed run too, so a
	// scrape or a file read after it sees where the run stopped.
	ferr := perShard(n, func(s int) error {
		if err := devs[s].FinishObservability(); err != nil {
			return fmt.Errorf("sim: %s/%s shard %d observability flush: %w", o.Scheme, profile.Name, s, err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %s/%s: %w", o.Scheme, profile.Name, err)
	}
	if ferr != nil {
		return nil, ferr
	}
	res.M = out.M
	res.TraceStats = it.acc.Stats()
	res.Digest = out.Digest
	res.Shards = out.Shards

	// Consistency is part of every run: a scheme that survives the trace but
	// corrupted its mapping must not produce results.
	err = perShard(n, func(s int) error {
		if err := devs[s].CheckConsistency(nil); err != nil {
			return fmt.Errorf("sim: %s/%s shard %d post-run consistency: %w", o.Scheme, profile.Name, s, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// newDevice builds one device the way every run and crash replay does: the
// scheme's translator, the device, Format, then — when writes > 0 — that many
// random rewrites of LPNs in [0, pages) drawn from seed, followed by a metrics
// reset, and last the translator's warm-up. The same arguments always yield
// bit-identical state.
func newDevice(s Scheme, cfg ftl.Config, tpftlCfg *core.Config, writes int, pages, seed int64) (*ftl.Device, ftl.Translator, error) {
	tr, err := NewTranslator(s, cfg.CacheBytes, cfg.LogicalPages(), tpftlCfg)
	if err != nil {
		return nil, nil, err
	}
	dev, err := ftl.NewDevice(cfg, tr)
	if err != nil {
		return nil, nil, err
	}
	if err := dev.Format(); err != nil {
		return nil, nil, err
	}
	if writes > 0 {
		if err := dev.PreconditionRange(writes, pages, seed); err != nil {
			return nil, nil, err
		}
		dev.ResetMetrics()
	}
	// Warm after preconditioning: the optimal FTL snapshots the live mapping
	// (it holds the authoritative table in RAM and never reads the persisted
	// translation pages).
	if w, ok := tr.(ftl.Warmer); ok {
		w.Warm(dev.Mapped)
	}
	return dev, tr, nil
}

// perShard calls fn(s) for every shard s in [0, n) and returns the
// lowest-index shard's error. One shard is called inline on the calling
// goroutine; two or more get one goroutine each, all joined before perShard
// returns. Shards share no mutable state, so fn may touch anything that
// belongs to shard s and nothing else, and what it computes cannot depend on
// how the goroutines interleave.
func perShard(n int, fn func(s int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = fn(s)
		}()
	}
	wg.Wait()
	return firstError(errs)
}

// firstError returns the lowest-index non-nil error: the one a serial loop
// over the same work would have stopped at.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// dirtySetOf extracts the dirty cached entries from any scheme that exposes
// them, nil for schemes that do not.
func dirtySetOf(tr ftl.Translator) []ftl.DirtyEntry {
	if d, ok := tr.(ftl.DirtyLister); ok {
		return d.DirtyCached()
	}
	return nil
}
