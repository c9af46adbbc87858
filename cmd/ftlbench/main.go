// Command ftlbench is the repository's reproducible macro-benchmark harness.
//
// It runs a fixed, seeded matrix of (translator × workload × backend
// geometry/queue-depth) simulations against the real device stack and emits a
// machine-diffable JSON report (BENCH_<n>.json) so the performance trajectory
// of the simulator engine itself — not the simulated metrics, which must stay
// bit-for-bit stable — can be compared across PRs:
//
//	sim_ops_per_wall_sec   simulated page accesses per wall-clock second
//	ns_per_op              wall nanoseconds per simulated page access
//	allocs_per_op          Go heap allocations per simulated page access
//	bytes_per_op           Go heap bytes per simulated page access
//	hit_ratio              mapping-cache hit ratio (a simulated metric,
//	                       recorded as a tripwire: it must not move)
//	event_hash             the scheduler's order-sensitive event hash,
//	                       recorded for the same reason
//	p50_ns/p99_ns/p999_ns  simulated response-time percentiles per case,
//	max_ns                 pooled over all -runs repetitions (deterministic)
//	requests_per_wall_sec  trace requests retired per wall-clock second
//	peak_rss_bytes         high-water resident footprint of the measured run
//
// Wall time is the best of -runs repetitions (allocation counts come from the
// first run; they are deterministic). Formatting, preconditioning and
// workload generation are excluded from the measured window.
//
// Examples:
//
//	ftlbench -out BENCH_5.json -runs 3
//	ftlbench -smoke -minops 200000            # CI floor: fail on 10× regressions
//	ftlbench -case random-read-qd8-4ch -cpuprofile cpu.pb.gz
//	ftlbench -out BENCH_5.json -baseline old.json -baseline-note "pre-slab"
//	ftlbench -out BENCH_5.json -keep-baseline    # refresh, keep old baseline
//	ftlbench -case stream-replay -stream-requests 2000000 -minops 4000000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/cmd/internal/memwatch"
	"repro/cmd/internal/telemetry"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The matrix geometry, spelled as named constants (the sanctioned spelling
// under the geometry analyzer: a literal channel count bakes a device shape
// into code).
const (
	serialChannels = 1
	serialDies     = 1
	wideChannels   = 4
	wideDies       = 2
)

// benchCase is one cell of the benchmark matrix.
type benchCase struct {
	Name     string
	Scheme   sim.Scheme
	Workload string // profile name, or "randread"/"seqread" synthetics
	Space    int64  // device capacity in bytes
	Requests int
	Seed     int64
	Channels int
	Dies     int
	QD       int // 0 = open loop
	// Shards > 0 routes the case through the sharded multi-queue host
	// frontend (internal/host): the LPN space striped across Shards
	// independent devices served by Clients concurrent goroutines. These
	// are the only cases whose wall time can use more than one CPU.
	Shards  int
	Clients int
	// Stream replays the workload from a binary trace file through the
	// streaming iterator instead of a materialized slice. The measured window
	// includes trace ingest (decode + admission), and the trace is sized by
	// -stream-requests, so the case demonstrates trace-size-independent
	// memory at full engine throughput.
	Stream bool
	Smoke  bool
}

// matrix is the fixed benchmark matrix. Keep the names stable: downstream
// tooling diffs BENCH_*.json across PRs by case name. Cases marked Smoke form
// the small matrix `make ci` runs with a throughput floor.
func matrix() []benchCase {
	const space = 64 << 20
	return []benchCase{
		// The headline macro-bench: device-bound uniform random 4 KB reads,
		// queue depth 8 on a 4-channel × 2-die device. The engine (cache
		// lookups, event scheduling) is the bottleneck here, which makes it
		// the case PR-over-PR engine speedups are measured on.
		{Name: "random-read-qd8-4ch", Scheme: sim.SchemeTPFTL, Workload: "randread",
			Space: space, Requests: 60_000, Seed: 7, Channels: wideChannels, Dies: wideDies, QD: 8, Smoke: true},
		{Name: "random-read-qd8-4ch-dftl", Scheme: sim.SchemeDFTL, Workload: "randread",
			Space: space, Requests: 60_000, Seed: 7, Channels: wideChannels, Dies: wideDies, QD: 8},
		// The paper's trace shape on the serial compatibility geometry.
		{Name: "financial1-serial", Scheme: sim.SchemeTPFTL, Workload: "Financial1",
			Space: space, Requests: 30_000, Seed: 42, Channels: serialChannels, Dies: serialDies, QD: 1, Smoke: true},
		{Name: "financial1-serial-dftl", Scheme: sim.SchemeDFTL, Workload: "Financial1",
			Space: space, Requests: 30_000, Seed: 42, Channels: serialChannels, Dies: serialDies, QD: 1},
		{Name: "financial1-serial-sftl", Scheme: sim.SchemeSFTL, Workload: "Financial1",
			Space: space, Requests: 30_000, Seed: 42, Channels: serialChannels, Dies: serialDies, QD: 1},
		{Name: "financial1-qd8-4ch", Scheme: sim.SchemeTPFTL, Workload: "Financial1",
			Space: space, Requests: 30_000, Seed: 42, Channels: wideChannels, Dies: wideDies, QD: 8},
		// Sequential reads drive TPFTL's prefetch paths.
		{Name: "seq-read-serial", Scheme: sim.SchemeTPFTL, Workload: "seqread",
			Space: space, Requests: 40_000, Seed: 3, Channels: serialChannels, Dies: serialDies, QD: 1},
		// The closed-loop saturation ladder: the identical device-bound
		// random-read trace pushed through the sharded host at 1, 2 and 4
		// shards (2 clients per shard, queue depth 8 per shard). The three
		// cases share a seed, so sim_ops_per_wall_sec across them is the
		// host frontend's wall-clock scaling curve; on a multi-core machine
		// the 4-shard cell should approach 4x the 1-shard cell.
		{Name: "saturate-shard1", Scheme: sim.SchemeTPFTL, Workload: "randread",
			Space: 4 * space, Requests: 48_000, Seed: 11, Channels: wideChannels, Dies: wideDies,
			QD: 8, Shards: 1, Clients: 2},
		{Name: "saturate-shard2", Scheme: sim.SchemeTPFTL, Workload: "randread",
			Space: 4 * space, Requests: 48_000, Seed: 11, Channels: wideChannels, Dies: wideDies,
			QD: 8, Shards: 2, Clients: 4},
		{Name: "saturate-shard4", Scheme: sim.SchemeTPFTL, Workload: "randread",
			Space: 4 * space, Requests: 48_000, Seed: 11, Channels: wideChannels, Dies: wideDies,
			QD: 8, Shards: 4, Clients: 8},
		// Streamed replay of a synthetic binary trace far larger than memory
		// would allow as a slice. Requests is set from -stream-requests
		// (default 100M); the trace file is generated once into the system
		// temp directory and reused. The wall-clock window includes reading
		// and decoding the trace, so sim_ops_per_wall_sec here is the
		// end-to-end ingest throughput the streaming engine sustains.
		{Name: "stream-replay", Scheme: sim.SchemeTPFTL, Workload: "seqread",
			Space: space, Seed: 3, Channels: serialChannels, Dies: serialDies, QD: 1, Stream: true},
	}
}

// caseResult is one measured cell, as serialized into the report.
type caseResult struct {
	Name     string `json:"name"`
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	Channels int    `json:"channels"`
	Dies     int    `json:"dies"`
	QD       int    `json:"qd"`
	Shards   int    `json:"shards,omitempty"`
	Clients  int    `json:"clients,omitempty"`
	Requests int    `json:"requests"`
	Seed     int64  `json:"seed"`

	SimOps           int64   `json:"sim_ops"` // simulated page accesses
	WallNS           int64   `json:"wall_ns"` // best-of-runs measured window
	NsPerOp          float64 `json:"ns_per_op"`
	AllocsPerOp      float64 `json:"allocs_per_op"`
	BytesPerOp       float64 `json:"bytes_per_op"`
	SimOpsPerWallSec float64 `json:"sim_ops_per_wall_sec"`

	// Simulated-metric tripwires: engine optimizations must not move these.
	// For sharded cases EventHash carries the host's merged digest (the
	// per-shard event hashes folded order-insensitively across shards).
	HitRatio     float64 `json:"hit_ratio"`
	SimElapsedNS int64   `json:"sim_elapsed_ns"`
	EventHash    string  `json:"event_hash"`

	// Simulated response-time percentiles (ns), pooled over all -runs
	// repetitions via Metrics.Merge. Simulated metrics, so deterministic —
	// they move only when device behavior changes, never with wall time.
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
	MaxNS  int64 `json:"max_ns"`

	// ReqsPerWallSec is trace requests retired per wall second (SimOps counts
	// page accesses; multi-page requests make the two differ).
	ReqsPerWallSec float64 `json:"requests_per_wall_sec"`
	// PeakRSSBytes is the high-water resident footprint (runtime MemStats
	// Sys - HeapReleased) sampled during the first measured run. For the
	// stream-replay case it is the bounded-memory tripwire: it must not grow
	// with -stream-requests.
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

// report is the on-disk JSON shape.
type report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	// GOMAXPROCS records the CPU budget wall times were measured under —
	// essential context for the saturate-shard* scaling cells, which can
	// only show wall-clock speedup when more than one CPU is available.
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note,omitempty"`
	// Runs is the best-of count wall times were taken over.
	Runs    int          `json:"runs"`
	Results []caseResult `json:"results"`
	// Baseline embeds an earlier report's results (same matrix, pre-change
	// build) so one file carries the comparison.
	Baseline *baselineSection `json:"baseline,omitempty"`
}

type baselineSection struct {
	Note    string       `json:"note,omitempty"`
	Results []caseResult `json:"results"`
}

func main() {
	var (
		out          = flag.String("out", "", "write the JSON report to this file (default stdout)")
		note         = flag.String("note", "", "free-form note recorded in the report")
		baseline     = flag.String("baseline", "", "embed the results of this earlier report as the baseline section")
		baselineNote = flag.String("baseline-note", "", "note recorded on the embedded baseline")
		keepBaseline = flag.Bool("keep-baseline", false, "carry the baseline section of the existing -out file into the new report")
		runs         = flag.Int("runs", 1, "wall-time repetitions per case (best is reported)")
		smoke        = flag.Bool("smoke", false, "run only the smoke subset of the matrix, at reduced request counts")
		only         = flag.String("case", "", "run only the named case")
		minOps       = flag.Float64("minops", 0, "fail (exit 1) if any smoke case's sim_ops_per_wall_sec falls below this floor")
		streamReqs   = flag.Int("stream-requests", 100_000_000, "trace length of the stream-replay case")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the measured runs to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile taken after the measured runs to this file")
		telAddr      = flag.String("telemetry-addr", "", "serve live telemetry over HTTP on this address while cases run (Prometheus /metrics, JSON /snapshot, pprof under /debug); measured numbers are unaffected")
	)
	flag.Parse()
	if err := run(*out, *note, *baseline, *baselineNote, *keepBaseline, *runs, *smoke, *only, *minOps, *streamReqs, *cpuprofile, *memprofile, *telAddr); err != nil {
		fmt.Fprintln(os.Stderr, "ftlbench:", err)
		os.Exit(1)
	}
}

func run(out, note, baseline, baselineNote string, keepBaseline bool, runs int, smoke bool, only string, minOps float64, streamReqs int, cpuprofile, memprofile, telAddr string) error {
	if runs < 1 {
		runs = 1
	}
	var plane *live.Plane
	if telAddr != "" {
		plane = live.NewPlane(0, 0)
		tel, err := telemetry.Start(telemetry.Options{Addr: telAddr, Plane: plane})
		if err != nil {
			return err
		}
		defer tel.Finish()
	}
	cases := matrix()
	selected := cases[:0]
	for _, c := range cases {
		if c.Stream {
			c.Requests = streamReqs
		}
		if smoke {
			if !c.Smoke {
				continue
			}
			c.Requests /= 4
		}
		if only != "" && c.Name != only {
			continue
		}
		selected = append(selected, c)
	}
	if len(selected) == 0 {
		return fmt.Errorf("no cases selected (case %q, smoke %v)", only, smoke)
	}

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	rep := report{
		Schema:     "repro/ftlbench/v4",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       note,
		Runs:       runs,
	}
	for _, c := range selected {
		r, err := runCase(c, runs, plane)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ops/s  %7.1f ns/op  %6.2f allocs/op  %8.1f B/op  Hr %.4f  rss %4.0f MB\n",
			r.Name, r.SimOpsPerWallSec, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.HitRatio,
			float64(r.PeakRSSBytes)/(1<<20))
		rep.Results = append(rep.Results, r)
	}

	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	if baseline != "" {
		data, err := os.ReadFile(baseline)
		if err != nil {
			return err
		}
		var base report
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("baseline %s: %w", baseline, err)
		}
		bn := baselineNote
		if bn == "" {
			bn = base.Note
		}
		rep.Baseline = &baselineSection{Note: bn, Results: base.Results}
	} else if keepBaseline && out != "" {
		// `make bench` refreshes the committed report in place; the baseline
		// it carries (the pre-optimization build's numbers) cannot be
		// regenerated from this source tree, so it is copied forward.
		data, err := os.ReadFile(out)
		if err != nil {
			return fmt.Errorf("-keep-baseline: %w", err)
		}
		var prev report
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("-keep-baseline %s: %w", out, err)
		}
		if note == "" {
			rep.Note = prev.Note
		}
		rep.Baseline = prev.Baseline
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		return err
	}

	if minOps > 0 {
		var bad []string
		for _, r := range rep.Results {
			if r.SimOpsPerWallSec < minOps {
				bad = append(bad, fmt.Sprintf("%s: %.0f ops/s < floor %.0f", r.Name, r.SimOpsPerWallSec, minOps))
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("throughput floor violated:\n  %s", strings.Join(bad, "\n  "))
		}
	}
	return nil
}

// buildCase constructs a fresh formatted, preconditioned device plus the
// request sequence for one cell. Everything here is excluded from the
// measured window.
func buildCase(c benchCase) (*ftl.Device, []trace.Request, error) {
	cfg := ftl.DefaultConfig(c.Space)
	cfg.CacheBytes = ftl.DefaultCacheBytes(c.Space)
	cfg.Channels = c.Channels
	cfg.Dies = c.Dies

	tr, err := sim.NewTranslator(c.Scheme, cfg.CacheBytes, cfg.LogicalPages(), nil)
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

	pageBytes := int64(dev.Config().PageSize)
	footprint := c.Space * 3 / 4
	var reqs []trace.Request
	switch c.Workload {
	case "randread":
		rng := rand.New(rand.NewSource(c.Seed))
		pages := footprint / pageBytes
		reqs = make([]trace.Request, c.Requests)
		for i := range reqs {
			reqs[i] = trace.Request{Offset: rng.Int63n(pages) * pageBytes, Length: pageBytes}
		}
	case "seqread":
		pages := footprint / pageBytes
		reqs = make([]trace.Request, c.Requests)
		const span = 8 // pages per request
		for i := range reqs {
			start := (int64(i) * span) % (pages - span)
			reqs[i] = trace.Request{Offset: start * pageBytes, Length: span * pageBytes}
		}
	default:
		profile, err := workload.ProfileByName(c.Workload)
		if err != nil {
			return nil, nil, err
		}
		profile = profile.Scale(c.Space)
		fp := profile.FootprintBytes()
		if fp > 0 {
			footprint = fp
		}
		reqs, err = workload.Generate(profile, c.Requests, c.Seed)
		if err != nil {
			return nil, nil, err
		}
	}

	// One preconditioning pass over the footprint maps it and brings GC to
	// steady state, so the measured phase exercises the organic mix of cache
	// work, flash traffic and collection.
	footPages := footprint / pageBytes
	if err := dev.PreconditionRange(int(footPages), footPages, c.Seed+1); err != nil {
		return nil, nil, err
	}
	dev.ResetMetrics()
	return dev, reqs, nil
}

// buildShardCase constructs the sharded host for one saturate-shard* cell:
// the base config split across c.Shards devices, each formatted and
// preconditioned over its own image of the workload footprint. Everything
// here is excluded from the measured window.
func buildShardCase(c benchCase) (*host.Host, []trace.Request, error) {
	cfg := ftl.DefaultConfig(c.Space)
	cfg.CacheBytes = ftl.DefaultCacheBytes(c.Space)
	cfg.Channels = c.Channels
	cfg.Dies = c.Dies
	cfg.Seed = c.Seed
	lay, cfgs, err := host.ShardConfigs(cfg, c.Shards)
	if err != nil {
		return nil, nil, err
	}

	devs := make([]*ftl.Device, c.Shards)
	for s := range devs {
		tr, err := sim.NewTranslator(c.Scheme, cfgs[s].CacheBytes, cfgs[s].LogicalPages(), nil)
		if err != nil {
			return nil, nil, err
		}
		dev, err := ftl.NewDevice(cfgs[s], tr)
		if err != nil {
			return nil, nil, err
		}
		if err := dev.Format(); err != nil {
			return nil, nil, err
		}
		devs[s] = dev
	}

	if c.Workload != "randread" {
		return nil, nil, fmt.Errorf("shard cases use the randread synthetic, got %q", c.Workload)
	}
	pageBytes := int64(devs[0].Config().PageSize)
	footprint := c.Space * 3 / 4
	pages := footprint / pageBytes
	rng := rand.New(rand.NewSource(c.Seed))
	reqs := make([]trace.Request, c.Requests)
	for i := range reqs {
		reqs[i] = trace.Request{Offset: rng.Int63n(pages) * pageBytes, Length: pageBytes}
	}

	footPages := footprint / pageBytes
	for s, dev := range devs {
		image := lay.ImagePages(s, footPages)
		if err := dev.PreconditionRange(int(image), image, cfgs[s].Seed+1); err != nil {
			return nil, nil, err
		}
		dev.ResetMetrics()
	}
	h, err := host.New(lay, devs, host.Options{QueueDepth: c.QD})
	if err != nil {
		return nil, nil, err
	}
	return h, reqs, nil
}

// streamBatch is the admission batch size the stream-replay case reads its
// trace in: replay memory is O(streamBatch), independent of trace length.
const streamBatch = 4096

// streamTracePath is the cached synthetic binary trace for one stream cell,
// keyed by everything that determines its contents.
func streamTracePath(c benchCase) string {
	return filepath.Join(os.TempDir(),
		fmt.Sprintf("ftlbench-stream-%s-%d-%d-%d.ftr", c.Workload, c.Space, c.Requests, c.Seed))
}

// ensureStreamTrace generates the binary trace for c unless a cached file of
// the right length already exists, and returns its path. The workload is the
// same span-8 sequential-read synthetic buildCase materializes for "seqread",
// but written record-by-record: the trace never exists in memory, which is
// how a 100M-request file is produced on a small machine.
func ensureStreamTrace(c benchCase) (string, error) {
	if c.Workload != "seqread" {
		return "", fmt.Errorf("stream cases use the seqread synthetic, got %q", c.Workload)
	}
	path := streamTracePath(c)
	if st, err := trace.OpenBinary(path); err == nil {
		n := st.Records()
		st.Close()
		if n == int64(c.Requests) {
			return path, nil
		}
	}
	cfg := ftl.DefaultConfig(c.Space)
	pageBytes := int64(cfg.PageSize)
	pages := c.Space * 3 / 4 / pageBytes
	tmp, err := os.CreateTemp(os.TempDir(), "ftlbench-stream-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	bw, err := trace.NewBinaryWriter(tmp, trace.BinaryHeader{
		Records:   int64(c.Requests),
		PageBytes: int(pageBytes),
	})
	if err != nil {
		return "", err
	}
	const span = 8 // pages per request, as in buildCase's seqread
	for i := 0; i < c.Requests; i++ {
		start := (int64(i) * span) % (pages - span)
		r := trace.Request{Offset: start * pageBytes, Length: span * pageBytes}
		if err := bw.WriteRequest(r); err != nil {
			return "", err
		}
	}
	if err := bw.Finish(); err != nil {
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, nil
}

// buildStreamCase constructs the device for a stream cell (identical to
// buildCase's device setup) and opens the cached binary trace. Everything
// here is excluded from the measured window; trace ingest is not.
func buildStreamCase(c benchCase, tracePath string) (*ftl.Device, *trace.Stream, error) {
	cfg := ftl.DefaultConfig(c.Space)
	cfg.CacheBytes = ftl.DefaultCacheBytes(c.Space)
	cfg.Channels = c.Channels
	cfg.Dies = c.Dies
	tr, err := sim.NewTranslator(c.Scheme, cfg.CacheBytes, cfg.LogicalPages(), nil)
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
	pageBytes := int64(dev.Config().PageSize)
	footPages := c.Space * 3 / 4 / pageBytes
	if err := dev.PreconditionRange(int(footPages), footPages, c.Seed+1); err != nil {
		return nil, nil, err
	}
	dev.ResetMetrics()
	st, err := trace.OpenBinary(tracePath)
	if err != nil {
		return nil, nil, err
	}
	return dev, st, nil
}

// runCase measures one cell: allocations on the first run, wall time as the
// best of `runs` repetitions (each on a fresh device so cache state is
// identical). When plane is non-nil the cell's devices publish live epochs
// into it so an HTTP scraper can watch the matrix progress; the published
// counters never feed back into the measured simulation.
func runCase(c benchCase, runs int, plane *live.Plane) (caseResult, error) {
	res := caseResult{
		Name:     c.Name,
		Scheme:   string(c.Scheme),
		Workload: c.Workload,
		Channels: c.Channels,
		Dies:     c.Dies,
		QD:       c.QD,
		Shards:   c.Shards,
		Clients:  c.Clients,
		Requests: c.Requests,
		Seed:     c.Seed,
	}
	var tracePath string
	if c.Stream {
		var err error
		if tracePath, err = ensureStreamTrace(c); err != nil {
			return res, err
		}
	}
	var bestWall time.Duration
	var merged ftl.Metrics
	for r := 0; r < runs; r++ {
		var measure func() (ftl.Metrics, uint64, error)
		var cleanup func()
		var liveCell *live.Cell
		startRun := func(shards int) []*live.Cell {
			if plane == nil {
				return nil
			}
			cells := plane.StartRun(live.RunInfo{
				Scheme:        string(c.Scheme),
				Workload:      c.Name,
				Shards:        shards,
				TotalRequests: int64(c.Requests),
			})
			liveCell = cells[0]
			return cells
		}
		// admitAll is the measured window of every single-device cell, eager
		// or streamed: one Admitter fed from an iterator in streamBatch
		// pulls, queue stats published to the live cell once per batch.
		admitAll := func(dev *ftl.Device, it trace.Iterator) func() (ftl.Metrics, uint64, error) {
			return func() (ftl.Metrics, uint64, error) {
				a := ssd.NewAdmitter(c.QD)
				buf := make([]trace.Request, streamBatch)
				for {
					n, err := it.Next(buf)
					for i := 0; i < n; i++ {
						if _, aerr := a.Admit(dev, buf[i]); aerr != nil {
							return ftl.Metrics{}, 0, aerr
						}
					}
					if liveCell != nil {
						st := a.Stats()
						liveCell.SetQueueStats(st.Admitted, st.DepthSum, st.MaxDepth)
					}
					if err == io.EOF {
						break
					}
					if err != nil {
						return ftl.Metrics{}, 0, err
					}
				}
				dev.PublishLive()
				return dev.Metrics(), dev.Scheduler().EventHash(), nil
			}
		}
		if c.Stream {
			dev, st, err := buildStreamCase(c, tracePath)
			if err != nil {
				return res, err
			}
			if cells := startRun(1); cells != nil {
				dev.SetLive(liveCell)
			}
			cleanup = func() { st.Close() }
			measure = admitAll(dev, st)
		} else if c.Shards > 0 {
			h, reqs, err := buildShardCase(c)
			if err != nil {
				return res, err
			}
			if cells := startRun(c.Shards); cells != nil {
				h.SetLive(cells)
			}
			measure = func() (ftl.Metrics, uint64, error) {
				out, err := h.Replay(reqs, host.ReplayOptions{Clients: c.Clients})
				if err != nil {
					return ftl.Metrics{}, 0, err
				}
				return out.M, out.Digest, nil
			}
		} else {
			dev, reqs, err := buildCase(c)
			if err != nil {
				return res, err
			}
			if cells := startRun(1); cells != nil {
				dev.SetLive(liveCell)
			}
			measure = admitAll(dev, trace.NewSliceIterator(reqs))
		}

		var msBefore, msAfter runtime.MemStats
		var mw *memwatch.Watcher
		measureAllocs := r == 0
		if measureAllocs {
			mw = memwatch.Start(0)
			runtime.GC()
			runtime.ReadMemStats(&msBefore)
		}
		start := time.Now()
		m, hash, err := measure()
		wall := time.Since(start)
		if cleanup != nil {
			cleanup()
		}
		if err != nil {
			return res, err
		}
		var peakRSS uint64
		if measureAllocs {
			runtime.ReadMemStats(&msAfter)
			peakRSS = mw.Stop()
		}

		merged.Merge(&m)
		ops := m.PageAccesses()
		if ops <= 0 {
			return res, fmt.Errorf("no simulated ops recorded")
		}
		if measureAllocs {
			res.SimOps = ops
			res.AllocsPerOp = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(ops)
			res.BytesPerOp = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(ops)
			res.HitRatio = m.Hr()
			res.SimElapsedNS = int64(m.Elapsed)
			res.EventHash = fmt.Sprintf("%016x", hash)
			res.PeakRSSBytes = int64(peakRSS)
		}
		if bestWall == 0 || wall < bestWall {
			bestWall = wall
		}
	}
	res.WallNS = bestWall.Nanoseconds()
	res.NsPerOp = float64(res.WallNS) / float64(res.SimOps)
	res.SimOpsPerWallSec = float64(res.SimOps) / bestWall.Seconds()
	res.ReqsPerWallSec = float64(c.Requests) / bestWall.Seconds()
	resp := merged.Phase(obs.PhaseResponse)
	res.P50NS = int64(resp.Quantile(0.50))
	res.P99NS = int64(resp.Quantile(0.99))
	res.P999NS = int64(resp.Quantile(0.999))
	res.MaxNS = int64(resp.Max())
	return res, nil
}
