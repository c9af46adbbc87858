// Command ftlsim runs one FTL simulation and prints the paper's metrics.
//
// Examples:
//
//	ftlsim -scheme TPFTL -workload Financial1 -requests 300000
//	ftlsim -scheme DFTL -workload MSR-ts -scale 2147483648
//	ftlsim -scheme TPFTL -trace fin1.spc -format spc -space 536870912
//	ftlsim -scheme TPFTL -trace fin1.ftr -format binary -space 536870912
//	ftlsim -scheme TPFTL -variant bc -workload Financial1
//	ftlsim -scheme TPFTL -faults read=1e-4,program=1e-5
//	ftlsim -scheme TPFTL -faults cut=12000
//	ftlsim -scheme DFTL -cuts 50
//	ftlsim -scheme TPFTL -qd 8 -channels 4 -cpuprofile cpu.pb.gz
//	ftlsim -scheme TPFTL -shards 4 -clients 8 -qd 8 -channels 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	tpftl "repro"
	"repro/cmd/internal/memwatch"
	"repro/cmd/internal/telemetry"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// telemetryFlags groups the live-telemetry CLI knobs.
type telemetryFlags struct {
	addr        string        // HTTP scrape server address ("" = off)
	progress    bool          // periodic stderr progress line
	linger      time.Duration // keep serving after the run (until POST /quit)
	recorderOut string        // write the flight-recorder dump here after the run
}

// armed reports whether any surface of the live plane was requested.
func (t telemetryFlags) armed() bool {
	return t.addr != "" || t.progress || t.recorderOut != ""
}

func main() {
	var (
		scheme    = flag.String("scheme", "TPFTL", "FTL scheme: TPFTL, DFTL, S-FTL, CDFTL, ZFTL, Optimal")
		wl        = flag.String("workload", "Financial1", "workload profile: Financial1, Financial2, MSR-ts, MSR-src, fstrim-heavy, database-fsync")
		requests  = flag.Int("requests", 300_000, "number of requests to generate")
		seed      = flag.Int64("seed", 42, "workload seed")
		scale     = flag.Int64("scale", 0, "override the workload's address space in bytes")
		cache     = flag.Int64("cache", 0, "mapping cache budget in bytes (0 = paper convention)")
		fraction  = flag.Float64("fraction", 0, "cache budget as a fraction of the full mapping table (overrides -cache)")
		warmup    = flag.Int("warmup", 0, "requests served before metrics reset (default requests/10)")
		precond   = flag.Float64("precondition", 1.5, "preconditioning passes over the workload footprint")
		traceFile = flag.String("trace", "", "replay a trace file instead of generating a workload")
		format    = flag.String("format", "spc", "trace file format: spc, msr, native, binary (binary streams in bounded memory)")
		batch     = flag.Int("stream-batch", 0, "requests per admission batch when streaming a binary trace (0 = default)")
		space     = flag.Int64("space", 0, "device capacity in bytes when replaying a trace")
		variant   = flag.String("variant", "", "TPFTL technique subset, e.g. \"rsbc\", \"bc\", \"-\" (default full)")
		gcPolicy  = flag.String("gc", "greedy", "GC victim policy: greedy, cost-benefit")
		wearLevel = flag.Int("wearlevel", 0, "static wear-leveling threshold in erases (0 = off)")
		faults    = flag.String("faults", "", "fault plan, e.g. \"read=1e-4,program=1e-5\" or \"cut=12000\" (cut= switches to the crash-recovery harness)")
		cuts      = flag.Int("cuts", 0, "verify crash recovery at this many random power-cut points instead of measuring")
		channels  = flag.Int("channels", ftl.DefaultChannels, "flash channels (parallel backend geometry)")
		dies      = flag.Int("dies", ftl.DefaultDies, "dies per channel")
		qd        = flag.Int("qd", 1, "queue depth: N requests in flight closed-loop; 0 replays arrival times open-loop (per shard when -shards is set)")
		shards    = flag.Int("shards", 0, "stripe the LPN space across N independent FTL instances served concurrently (0 and 1 are the same single-device run)")
		clients   = flag.Int("clients", 0, "submitter lanes feeding the shard workers when -shards is 2 or more (default one per shard; simulated results are independent of it)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile taken after the run to this file")

		metricsOut      = flag.String("metrics-out", "", "stream JSONL metrics snapshots (counter deltas + per-phase latency quantiles) of the measured phase to this file")
		metricsInterval = flag.Int("metrics-interval", 1000, "measured requests between -metrics-out snapshots")
		traceOut        = flag.String("trace-out", "", "write the measured phase's flash-operation span trace (Chrome trace_event JSON, open in Perfetto) to this file")

		telemetryAddr     = flag.String("telemetry-addr", "", "serve live telemetry over HTTP on this address while the run is in flight: Prometheus text on /metrics, JSON on /snapshot, expvar + pprof under /debug (simulated results are bit-for-bit unaffected)")
		telemetryProgress = flag.Bool("progress", false, "print a periodic progress line (requests, req/s, ETA, peak RSS) to stderr")
		telemetryLinger   = flag.Duration("telemetry-linger", 0, "keep the telemetry server alive this long after the run (or until POST /quit), so a scraper can read the final epochs")
		recorderOut       = flag.String("recorder-out", "", "write the per-shard flight-recorder dump (last N requests + GC events) to this file after the run")
	)
	flag.Parse()
	if *memprof != "" {
		// Sample every page's worth of allocation, from before the run's
		// first one: at the default 512 KiB a device of a few MiB is a
		// handful of samples and whole arrays come out several times too
		// large or missing.
		runtime.MemProfileRate = os.Getpagesize()
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ftlsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ftlsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	tf := telemetryFlags{
		addr:        *telemetryAddr,
		progress:    *telemetryProgress,
		linger:      *telemetryLinger,
		recorderOut: *recorderOut,
	}
	if err := run(*scheme, *wl, *requests, *seed, *scale, *cache, *fraction,
		*warmup, *precond, *traceFile, *format, *batch, *space, *variant, *gcPolicy, *wearLevel,
		*faults, *cuts, *channels, *dies, *qd, *shards, *clients,
		*metricsOut, *metricsInterval, *traceOut, tf); err != nil {
		fmt.Fprintln(os.Stderr, "ftlsim:", err)
		os.Exit(1)
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ftlsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		// The heap profile is as of the last completed collection, and a
		// streamed replay that allocates nothing may never have had one.
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ftlsim:", err)
			os.Exit(1)
		}
	}
}

func run(scheme, wl string, requests int, seed, scale, cache int64, fraction float64,
	warmup int, precond float64, traceFile, format string, batch int, space int64, variant, gcPolicy string, wearLevel int,
	faults string, cuts, channels, dies, qd, shards, clients int,
	metricsOut string, metricsInterval int, traceOut string, tf telemetryFlags) error {
	profile, err := workload.ProfileByName(wl)
	if err != nil {
		return err
	}
	opts := sim.Options{
		Scheme:        sim.Scheme(scheme),
		Profile:       profile,
		Requests:      requests,
		Seed:          seed,
		AddressSpace:  scale,
		CacheBytes:    cache,
		CacheFraction: fraction,
		Precondition:  precond,
		Channels:      channels,
		Dies:          dies,
		QueueDepth:    qd,
		OpenLoop:      qd == 0,
		Shards:        shards,
		Clients:       clients,
	}
	switch gcPolicy {
	case "", "greedy":
		opts.GCPolicy = ftl.GCGreedy
	case "cost-benefit", "costbenefit", "cb":
		opts.GCPolicy = ftl.GCCostBenefit
	default:
		return fmt.Errorf("unknown GC policy %q", gcPolicy)
	}
	opts.WearLevelThreshold = wearLevel
	if warmup == 0 {
		warmup = requests / 10
	}
	opts.ResetAfterWarmup = warmup

	if variant != "" {
		cfg := variantConfig(variant)
		opts.TPFTL = &cfg
	}

	var plan *tpftl.FaultPlan
	if faults != "" {
		if plan, err = tpftl.ParseFaultPlan(faults); err != nil {
			return err
		}
	}
	if cuts > 0 || (plan != nil && plan.CutAtOp > 0) {
		// Power-cut verification replaces the measurement run.
		if traceFile != "" {
			return fmt.Errorf("-cuts/-faults cut= verify generated workloads only (trace replay is not supported)")
		}
		if shards > 1 {
			return fmt.Errorf("-cuts/-faults cut= verify a single device (drop -shards)")
		}
		co := tpftl.CrashOptions{
			Scheme:       opts.Scheme,
			TPFTL:        opts.TPFTL,
			Profile:      opts.Profile,
			AddressSpace: opts.AddressSpace,
			Requests:     requests,
			Seed:         seed,
			CacheBytes:   cache,
			Cuts:         cuts,
			Channels:     channels,
			Dies:         dies,
		}
		if plan != nil {
			co.CutAtOp = plan.CutAtOp
			co.FaultProb = plan.ReadProb // one knob for all ops on the CLI path
		}
		rep, err := tpftl.RunCrash(co)
		if err != nil {
			return err
		}
		printCrashReport(rep)
		return nil
	}
	opts.Faults = plan

	if traceFile != "" {
		if space == 0 {
			return fmt.Errorf("-space is required with -trace (the paper sizes the SSD to the trace's address space)")
		}
		opts.AddressSpace = space
		if format == "binary" {
			// Binary traces are streamed from the file through the simulator
			// in fixed-size batches: memory stays O(batch), not O(trace).
			st, err := trace.OpenBinary(traceFile)
			if err != nil {
				return err
			}
			defer st.Close()
			opts.TraceStream = st
			opts.StreamBatch = batch
		} else {
			f, err := os.Open(traceFile)
			if err != nil {
				return err
			}
			defer f.Close()
			reqs, err := tpftl.ParseTrace(f, format)
			if err != nil {
				return err
			}
			opts.Trace = reqs
		}
	}

	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		opts.MetricsOut = f
		opts.MetricsInterval = metricsInterval
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		opts.TraceOut = f
	}

	var plane *live.Plane
	if tf.armed() {
		plane = live.NewPlane(0, 0)
		opts.Telemetry = plane
	}

	mw := memwatch.Start(0)
	var tel *telemetry.T
	if plane != nil {
		var pw io.Writer
		if tf.progress {
			pw = os.Stderr
		}
		tel, err = telemetry.Start(telemetry.Options{
			Addr:     tf.addr,
			Plane:    plane,
			Progress: pw,
			Linger:   tf.linger,
			Watcher:  mw,
		})
		if err != nil {
			mw.Stop()
			return err
		}
	}
	res, err := tpftl.Run(opts)
	if tel != nil {
		if err != nil {
			// Post-mortem: the last admitted requests and scheduler events
			// of every shard, straight to stderr before we bail.
			fmt.Fprintln(os.Stderr, "ftlsim: run failed — flight recorder follows")
			tel.DumpOnError(os.Stderr)
		}
		tel.Finish()
	}
	peak := mw.Stop()
	if err != nil {
		return err
	}
	if tf.recorderOut != "" && plane != nil {
		f, err := os.Create(tf.recorderOut)
		if err != nil {
			return err
		}
		if err := plane.DumpRecorders(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	printResult(res)
	fmt.Fprintf(os.Stderr, "peak rss          %.1f MB\n", float64(peak)/(1<<20))
	return nil
}

// variantConfig builds a TPFTL configuration from an "rsbc" monogram
// ("-" or "" selects the bare two-level variant).
func variantConfig(v string) core.Config {
	cfg := core.Config{CompressEntries: true}
	for _, c := range strings.ToLower(v) {
		switch c {
		case 'r':
			cfg.RequestPrefetch = true
		case 's':
			cfg.SelectivePrefetch = true
		case 'b':
			cfg.BatchUpdate = true
		case 'c':
			cfg.CleanFirst = true
		}
	}
	return cfg
}

func printResult(r *tpftl.Result) {
	m := r.M
	name := string(r.Scheme)
	if r.Variant != "" && r.Variant != "rsbc" {
		name += "(" + r.Variant + ")"
	}
	fmt.Printf("scheme            %s\n", name)
	fmt.Printf("workload          %s\n", r.Workload)
	fmt.Printf("cache budget      %d B\n", r.CacheBytes)
	fmt.Printf("requests          %d (%d page reads, %d page writes)\n",
		m.Requests, m.PageReads, m.PageWrites)
	fmt.Println()
	fmt.Printf("hit ratio (Hr)            %6.2f%%\n", m.Hr()*100)
	fmt.Printf("dirty replacement (Prd)   %6.2f%%\n", m.Prd()*100)
	fmt.Printf("GC map hit ratio (Hgcr)   %6.2f%%\n", m.Hgcr()*100)
	fmt.Println()
	fmt.Printf("translation page reads    %8d (AT %d, GC %d)\n",
		m.TransReads(), m.TransReadsAT, m.TransReadsGC)
	fmt.Printf("translation page writes   %8d (AT %d, GC %d, migrated %d)\n",
		m.TransWrites(), m.TransWritesAT, m.TransWritesGC, m.GCTransMigrations)
	fmt.Printf("GC collections            %8d data, %d translation\n",
		m.GCDataCollections, m.GCTransCollections)
	fmt.Printf("Vd / Vt                   %8.2f / %.2f valid pages per victim\n", m.Vd(), m.Vt())
	fmt.Println()
	fmt.Printf("avg response time         %v (service %v, max %v)\n",
		m.AvgResponse(), m.AvgService(), m.MaxResponse)
	resp := m.Phase(obs.PhaseResponse)
	fmt.Printf("response percentiles      p50 %v, p90 %v, p99 %v, p99.9 %v\n",
		resp.Quantile(0.50), resp.Quantile(0.90), resp.Quantile(0.99), resp.Quantile(0.999))
	fmt.Println()
	fmt.Printf("latency by phase               count       mean        p99        max\n")
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		h := m.Phase(p)
		if h.Count == 0 {
			continue
		}
		fmt.Printf("  %-14s %15d %10v %10v %10v\n",
			p, h.Count, h.Mean(), h.Quantile(0.99), h.Max())
	}
	fmt.Println()
	fmt.Printf("write amplification       %8.3f\n", m.WriteAmplification())
	fmt.Printf("block erases              %8d\n", m.FlashErases)
	if m.TrimRequests > 0 || m.FlushRequests > 0 || m.FUAWrites > 0 {
		fmt.Println()
		if m.TrimRequests > 0 {
			fmt.Printf("trim requests             %8d (%d pages discarded)\n", m.TrimRequests, m.TrimmedPages)
		}
		if m.FlushRequests > 0 {
			fmt.Printf("flush barriers            %8d (%d dirty-entry writebacks)\n", m.FlushRequests, m.FlushStalls)
		}
		if m.FUAWrites > 0 {
			fmt.Printf("FUA writes                %8d\n", m.FUAWrites)
		}
	}
	if m.Channels > 1 || m.DiesPerChannel > 1 || m.MaxQueueDepth > 1 {
		fmt.Println()
		fmt.Printf("backend                   %d channels × %d dies, elapsed %v\n",
			m.Channels, m.DiesPerChannel, m.Elapsed)
		fmt.Printf("throughput                %8.0f req/s\n", m.Throughput())
		if m.MaxQueueDepth > 0 {
			fmt.Printf("queue depth               %8.2f avg, %d max\n",
				m.AvgQueueDepth(), m.MaxQueueDepth)
		}
		for ch := 0; ch < m.Channels; ch++ {
			fmt.Printf("channel %-2d utilization    %7.2f%%\n", ch, m.ChannelUtilization(ch)*100)
		}
	}
	if m.InjectedFaults > 0 {
		fmt.Println()
		fmt.Printf("injected faults           %8d\n", m.InjectedFaults)
		fmt.Printf("fault retries             %8d\n", m.FaultRetries)
	}
	if len(r.Shards) > 1 {
		fmt.Println()
		fmt.Printf("shards                    %8d (merged digest %016x)\n", len(r.Shards), r.Digest)
		fmt.Printf("  shard   requests     page accesses   avg response   hit ratio   mean depth   event hash\n")
		for _, s := range r.Shards {
			fmt.Printf("  %5d %10d %17d %14v %10.2f%% %12.2f   %016x\n",
				s.Shard, s.M.Requests, s.M.PageAccesses(), s.M.AvgResponse(),
				s.M.Hr()*100, s.FS.MeanDepth(), s.EventHash)
		}
	}
}

func printCrashReport(r *tpftl.CrashReport) {
	fmt.Printf("scheme            %s\n", r.Scheme)
	fmt.Printf("workload ops      %d flash operations\n", r.TotalOps)
	fmt.Printf("cut points        %d, all recovered exactly\n", len(r.Cuts))
	var scanned, injected int64
	var acked int
	for _, c := range r.Cuts {
		scanned += c.ScannedPages
		injected += c.Injected
		acked += c.AckedPages
	}
	n := int64(len(r.Cuts))
	if n > 0 {
		fmt.Printf("recovery scan     %d pages/cut average\n", scanned/n)
	}
	fmt.Printf("acked pages       %d verified durable\n", acked)
	if injected > 0 {
		fmt.Printf("injected faults   %d transient, all absorbed\n", injected)
	}
	for _, c := range r.Cuts {
		fmt.Printf("  cut@%-10d %5d requests served, %5d acked pages, %d scanned\n",
			c.CutOp, c.ServedRequests, c.AckedPages, c.ScannedPages)
	}
}
