package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// The layer ladder: the same trace fed to each layer's public functions from
// here, bottom rung to top, so the cost of a full replay can be set against
// the cost of its parts. Every rung keeps the fastest of ladderPasses passes,
// as the clock read them: the rungs of one run are compared with each other,
// not with the gated end-to-end numbers (medians at reference-machine speed)
// and not with another run's.
const (
	ladderPasses = 5
	// ladderPages caps the translator rungs: they are fed the trace from its
	// first record until this many pages have been translated.
	ladderPages = 2 << 20
	// schedOps and the flash geometry size the two rungs that have no trace
	// input; they only need to run long enough to time.
	schedOps      = 2 << 20
	flashBlocks   = 512
	flashSweeps   = 4
	nullServiceNS = 50_000
)

var ladderDefs = []metricDef{
	{"trace.decode_ns_per_req", "ns/req", "lower", hostTime, "OpenBinary + Stream.Next to EOF, per record"},
	{"host.route_ns_per_req", "ns/req", "lower", hostTime, "Layout.Fragments only, at the workload's shard count"},
	{"ssd.admit_ns_per_req", "ns/req", "lower", hostTime, "Admitter.Admit over a null ssd.Server at the workload's queue depth"},
	{"ssd.sched_ns_per_op", "ns/op", "lower", hostTime, "Scheduler BeginRequest/IssueOp/EndRequest, per flash operation"},
	{"flash.op_ns", "ns/op", "lower", hostTime, "Chip program/read/invalidate/erase cycle, per operation"},
	{"core.translate_ns_per_page", "ns/page", "lower", hostTime, "TPFTL BeginRequest/Translate/Update over a null ftl.Env"},
	{"core.allocs_per_kpage", "1/kpage", "lower", hostCount, "heap objects per 1000 pages in that rung"},
	{"dftl.translate_ns_per_page", "ns/page", "lower", hostTime, "DFTL over the same null ftl.Env"},
	{"dftl.allocs_per_kpage", "1/kpage", "lower", hostCount, "heap objects per 1000 pages in that rung"},
	{"sftl.translate_ns_per_page", "ns/page", "lower", hostTime, "S-FTL over the same null ftl.Env"},
	{"sftl.allocs_per_kpage", "1/kpage", "lower", hostCount, "heap objects per 1000 pages in that rung"},
	{"ftl.serve_ns_per_req", "ns/req", "lower", hostTime, "one whole device served by an Admitter from a slice: no decode, no host"},
	{"ftl.precondition_ns_per_page", "ns/page", "lower", hostTime, "Device.PreconditionRange per page rewritten"},
	{"ftl.format_s", "s", "lower", hostTime, "Device.Format of the 512 MiB device"},
	{"host.replay_ns_per_req", "ns/req", "lower", hostTime, "host.ReplayStream from a slice at the workload's shard count"},
	{"sim.run_ns_per_req", "ns/req", "lower", hostTime, "the top rung: replay window of plain sim.Run from the file, fastest pass as the clock read it (not replay_req_per_s, which is a median at reference speed)"},
	{"host.self_ns_per_req", "ns/req", "lower", hostTime, "host.replay − ftl.serve: what routing, lanes and joins add"},
	{"sim.self_ns_per_req", "ns/req", "lower", hostTime, "sim.run − host.replay: decode, statistics, consistency check"},
	{"trace.decode_share", "ratio", "lower", hostTime, "rung cost per request ÷ sim.run_ns_per_req"},
	{"host.route_share", "ratio", "lower", hostTime, "rung cost per request ÷ sim.run_ns_per_req"},
	{"ssd.admit_share", "ratio", "lower", hostTime, "rung cost per request ÷ sim.run_ns_per_req"},
	{"ssd.sched_share", "ratio", "lower", hostTime, "ns per op × flash ops per request ÷ sim.run_ns_per_req"},
	{"flash.op_share", "ratio", "lower", hostTime, "ns per op × flash ops per request ÷ sim.run_ns_per_req"},
	{"core.translate_share", "ratio", "lower", hostTime, "ns per page × pages per request ÷ sim.run_ns_per_req"},
	{"ftl.serve_share", "ratio", "lower", hostTime, "rung cost per request ÷ sim.run_ns_per_req"},
	{"host.replay_share", "ratio", "lower", hostTime, "rung cost per request ÷ sim.run_ns_per_req"},
	{"host.self_share", "ratio", "lower", hostTime, "host.self_ns_per_req ÷ sim.run_ns_per_req"},
	{"sim.self_share", "ratio", "lower", hostTime, "sim.self_ns_per_req ÷ sim.run_ns_per_req"},
	{"live.overhead_rel", "ratio", "lower", hostTime, "replay wall with Options.Telemetry attached ÷ without, minus 1"},
	{"workload.gen_ns_per_req", "ns/req", "lower", hostTime, "generating one trace record into a BinaryWriter"},
	{"bench.trace_overhead_rel", "ratio", "lower", hostTime, "replay wall with the benchmark's spans on ÷ off, minus 1"},
}

// nullServer completes every request a fixed time after admission.
type nullServer struct{ service time.Duration }

var _ ssd.Server = nullServer{}

func (n nullServer) ServeAt(_ trace.Request, admit time.Duration) (time.Duration, error) {
	return admit + n.service, nil
}

// nullEnv is an ftl.Env with no device behind it: translation pages live in
// one flat table, reads and writes cost nothing, the Note hooks drop their
// argument. A translator driven over it does all of its own work and none of
// the device's.
type nullEnv struct {
	entriesPerTP int
	table        []flash.PPN // LPN → PPN
}

var _ ftl.Env = (*nullEnv)(nil)

func newNullEnv(lpns int64, entriesPerTP int) *nullEnv {
	e := &nullEnv{entriesPerTP: entriesPerTP, table: make([]flash.PPN, lpns)}
	for i := range e.table {
		e.table[i] = flash.PPN(i)
	}
	return e
}

func (e *nullEnv) EntriesPerTP() int { return e.entriesPerTP }
func (e *nullEnv) NumTPs() int       { return (len(e.table) + e.entriesPerTP - 1) / e.entriesPerTP }
func (e *nullEnv) NumLPNs() int64    { return int64(len(e.table)) }

func (e *nullEnv) ReadTP(v ftl.VTPN) ([]flash.PPN, error) {
	lo := int(v) * e.entriesPerTP
	if v < 0 || lo+e.entriesPerTP > len(e.table) {
		return nil, fmt.Errorf("null env: translation page %d out of range", v)
	}
	return e.table[lo : lo+e.entriesPerTP], nil
}

func (e *nullEnv) WriteTP(v ftl.VTPN, updates []ftl.EntryUpdate, _ bool) error {
	lo := int(v) * e.entriesPerTP
	for _, u := range updates {
		e.table[lo+u.Off] = u.PPN
	}
	return nil
}

func (e *nullEnv) NoteLookup(bool)        {}
func (e *nullEnv) NoteReplacement(bool)   {}
func (e *nullEnv) NoteGCMapUpdate(bool)   {}
func (e *nullEnv) NoteBatchWriteback(int) {}

// prepareTranslator does for a translator what ftl.NewDevice does before the
// first request: geometry-aware schemes size their structures from the
// device, and here the null env stands in for it.
func prepareTranslator(tr ftl.Translator, env ftl.Env) {
	if ga, ok := tr.(ftl.GeometryAware); ok {
		ga.SetGeometry(env.EntriesPerTP())
	}
}

// driveTranslator feeds reqs to tr page by page, the way Device.serveAdmitted
// does, until maxPages pages have been translated. It returns the page count.
func driveTranslator(tr ftl.Translator, env *nullEnv, reqs []trace.Request, maxPages int64) (int64, error) {
	var pages int64
	fresh := flash.PPN(env.NumLPNs()) // physical pages handed to writes
	for _, r := range reqs {
		if pages >= maxPages {
			break
		}
		if r.Op != trace.OpRead && !r.IsWrite() {
			continue
		}
		first, last := r.Pages(ftl.DefaultPageBytes)
		tr.BeginRequest(ftl.LPN(first), ftl.LPN(last), r.IsWrite())
		for lpn := ftl.LPN(first); lpn <= ftl.LPN(last); lpn++ {
			if _, err := tr.Translate(env, lpn); err != nil {
				return pages, err
			}
			if r.IsWrite() {
				if err := tr.Update(env, lpn, fresh); err != nil {
					return pages, err
				}
				fresh++
			}
			pages++
		}
	}
	return pages, nil
}

// ladder holds one traced run's inputs and what it has measured so far.
type ladder struct {
	s      spec
	seed   int64
	path   string
	all    []trace.Request // the whole trace, warm-up prefix included
	maxEnd int64
	spans  *spanRecorder
	values map[string]float64
}

// rung runs fn ladderPasses times under one span and returns the shortest
// window timed. fn prepares whatever the pass needs (a device, say), then
// does the rung's work; it returns when that work began, and the window runs
// from there to fn's return.
func (l *ladder) rung(name string, fn func() (start time.Time, err error)) (time.Duration, error) {
	id := l.spans.begin(name, 0)
	defer l.spans.end(id)
	var best time.Duration
	for p := 0; p < ladderPasses; p++ {
		runtime.GC()
		start, err := fn()
		end := time.Now()
		if err != nil {
			return 0, fmt.Errorf("%s pass %d: %w", name, p+1, err)
		}
		l.spans.add("pass", id, start, end)
		if d := end.Sub(start); p == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func (l *ladder) set(name string, total time.Duration, units int64) {
	l.values[name] = float64(total.Nanoseconds()) / float64(units)
}

// deviceConfig is the whole-device configuration sim.Run derives for s.
func deviceConfig(s spec) ftl.Config {
	cfg := ftl.DefaultConfig(deviceBytes)
	cfg.Channels, cfg.Dies = s.Channels, s.Dies
	return cfg
}

// agedDevice builds, formats and preconditions one device the way sim.Run
// does, and reports how long the two steps took.
func agedDevice(cfg ftl.Config, footPages, seed int64) (dev *ftl.Device, format, precondition time.Duration, err error) {
	tr, err := sim.NewTranslator(sim.SchemeTPFTL, cfg.CacheBytes, cfg.LogicalPages(), nil)
	if err != nil {
		return nil, 0, 0, err
	}
	if dev, err = ftl.NewDevice(cfg, tr); err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	if err = dev.Format(); err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	if err = dev.PreconditionRange(int(footPages), footPages, seed); err != nil {
		return nil, 0, 0, err
	}
	t2 := time.Now()
	dev.ResetMetrics()
	return dev, t1.Sub(t0), t2.Sub(t1), nil
}

func (l *ladder) decode() error {
	var buf [streamBatch]trace.Request
	d, err := l.rung("trace.decode", func() (start time.Time, err error) {
		start = time.Now()
		st, err := trace.OpenBinary(l.path)
		if err != nil {
			return start, err
		}
		defer st.Close()
		for {
			if _, err := st.Next(buf[:]); err == io.EOF {
				return start, nil
			} else if err != nil {
				return start, err
			}
		}
	})
	if err != nil {
		return err
	}
	l.set("trace.decode_ns_per_req", d, l.s.records())
	return nil
}

func (l *ladder) route() error {
	lay, _, err := host.ShardConfigs(deviceConfig(l.s), l.s.shardCount())
	if err != nil {
		return err
	}
	var frags []host.Fragment
	d, err := l.rung("host.route", func() (start time.Time, err error) {
		start = time.Now()
		for _, r := range l.all {
			if frags, err = lay.Fragments(r, frags[:0]); err != nil {
				return start, err
			}
		}
		return start, nil
	})
	if err != nil {
		return err
	}
	l.set("host.route_ns_per_req", d, l.s.records())
	return nil
}

func (l *ladder) admit() error {
	srv := nullServer{service: nullServiceNS}
	d, err := l.rung("ssd.admit", func() (start time.Time, err error) {
		adm := ssd.NewAdmitter(l.s.QD)
		start = time.Now()
		for _, r := range l.all {
			if _, err := adm.Admit(srv, r); err != nil {
				return start, err
			}
		}
		return start, nil
	})
	if err != nil {
		return err
	}
	l.set("ssd.admit_ns_per_req", d, l.s.records())
	return nil
}

func (l *ladder) sched() error {
	cfg := deviceConfig(l.s)
	dies := cfg.Channels * cfg.Dies
	d, err := l.rung("ssd.sched", func() (start time.Time, err error) {
		sch := ssd.NewScheduler(cfg.Channels, cfg.Dies)
		var now time.Duration
		start = time.Now()
		for i := 0; i < schedOps; i++ {
			sch.BeginRequest(now)
			sch.IssueOp(i%dies, cfg.ReadLatency, obs.OpDataRead)
			now = sch.EndRequest()
		}
		return start, nil
	})
	if err != nil {
		return err
	}
	l.set("ssd.sched_ns_per_op", d, schedOps)
	return nil
}

func (l *ladder) flashOps() error {
	cfg := flash.DefaultConfig(flashBlocks)
	var ops int64
	d, err := l.rung("flash.op", func() (start time.Time, err error) {
		chip, err := flash.New(cfg)
		if err != nil {
			return start, err
		}
		ops = 0
		start = time.Now()
		for sweep := 0; sweep < flashSweeps; sweep++ {
			for b := flash.BlockID(0); b < flashBlocks; b++ {
				for off := 0; off < cfg.PagesPerBlock; off++ {
					p := chip.PageAt(b, off)
					if _, err := chip.Program(p, flash.Meta{Kind: flash.KindData, Tag: int64(p), Seq: ops}); err != nil {
						return start, err
					}
					if _, err := chip.Read(p); err != nil {
						return start, err
					}
					if err := chip.Invalidate(p); err != nil {
						return start, err
					}
					ops += 3
				}
				if _, err := chip.Erase(b); err != nil {
					return start, err
				}
				ops++
			}
		}
		return start, nil
	})
	if err != nil {
		return err
	}
	l.set("flash.op_ns", d, ops)
	return nil
}

func (l *ladder) translators() error {
	cfg := deviceConfig(l.s)
	for _, t := range []struct {
		layer  string
		scheme sim.Scheme
	}{{"core", sim.SchemeTPFTL}, {"dftl", sim.SchemeDFTL}, {"sftl", sim.SchemeSFTL}} {
		var pages int64
		var mallocs uint64
		d, err := l.rung(t.layer+".translate", func() (start time.Time, err error) {
			tr, err := sim.NewTranslator(t.scheme, cfg.CacheBytes, cfg.LogicalPages(), nil)
			if err != nil {
				return start, err
			}
			env := newNullEnv(cfg.LogicalPages(), cfg.PageSize/ftl.EntryBytesInFlash)
			prepareTranslator(tr, env)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start = time.Now()
			pages, err = driveTranslator(tr, env, l.all, ladderPages)
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
			return start, err
		})
		if err != nil {
			return err
		}
		l.set(t.layer+".translate_ns_per_page", d, pages)
		l.values[t.layer+".allocs_per_kpage"] = 1000 * float64(mallocs) / float64(pages)
	}
	return nil
}

func (l *ladder) serve() error {
	cfg := deviceConfig(l.s)
	footPages := l.maxEnd / int64(cfg.PageSize)
	var format, precondition time.Duration
	d, err := l.rung("ftl.serve", func() (start time.Time, err error) {
		dev, f, p, err := agedDevice(cfg, footPages, 1)
		if err != nil {
			return start, err
		}
		if format == 0 || f < format {
			format = f
		}
		if precondition == 0 || p < precondition {
			precondition = p
		}
		adm := ssd.NewAdmitter(l.s.QD)
		for _, r := range l.all[:warmupRequests] {
			if _, err := adm.Admit(dev, r); err != nil {
				return start, err
			}
		}
		dev.ResetMetrics()
		adm = ssd.NewAdmitter(l.s.QD)
		start = time.Now()
		for _, r := range l.all[warmupRequests:] {
			if _, err := adm.Admit(dev, r); err != nil {
				return start, err
			}
		}
		return start, nil
	})
	if err != nil {
		return err
	}
	l.set("ftl.serve_ns_per_req", d, l.s.Measured)
	l.set("ftl.precondition_ns_per_page", precondition, footPages)
	l.values["ftl.format_s"] = format.Seconds()
	return nil
}

func (l *ladder) hostReplay() error {
	base := deviceConfig(l.s)
	footPages := l.maxEnd / int64(base.PageSize)
	opts := host.ReplayOptions{Clients: l.s.Clients, Batch: streamBatch}
	d, err := l.rung("host.replay", func() (start time.Time, err error) {
		lay, cfgs, err := host.ShardConfigs(base, l.s.shardCount())
		if err != nil {
			return start, err
		}
		devs := make([]*ftl.Device, len(cfgs))
		for i, cfg := range cfgs {
			if devs[i], _, _, err = agedDevice(cfg, lay.ImagePages(i, footPages), 1+int64(i)); err != nil {
				return start, err
			}
		}
		h, err := host.New(lay, devs, host.Options{QueueDepth: l.s.QD})
		if err != nil {
			return start, err
		}
		if _, err := h.Replay(l.all[:warmupRequests], opts); err != nil {
			return start, err
		}
		for _, dev := range devs {
			dev.ResetMetrics()
		}
		start = time.Now()
		_, err = h.ReplayStream(trace.NewSliceIterator(l.all[warmupRequests:]), opts)
		return start, err
	})
	if err != nil {
		return err
	}
	l.set("host.replay_ns_per_req", d, l.s.Measured)
	return nil
}

// simRuns times the full replay three ways in turn — plain, with the
// benchmark's spans on, with the live telemetry plane attached — so that the
// two overheads compare passes that ran next to each other.
func (l *ladder) simRuns(ref *sim.Result) error {
	id := l.spans.begin("sim.run", 0)
	defer l.spans.end(id)
	variants := []struct {
		name  string
		hooks func(parent int) replayHooks
		best  time.Duration
	}{
		{name: "plain", hooks: func(int) replayHooks { return replayHooks{} }},
		{name: "traced", hooks: func(p int) replayHooks { return replayHooks{spans: l.spans, parent: p} }},
		{name: "live", hooks: func(int) replayHooks { return replayHooks{plane: live.NewPlane(0, 0)} }},
	}
	for p := 0; p < ladderPasses; p++ {
		for i := range variants {
			v := &variants[i]
			runtime.GC()
			pass := l.spans.begin("pass:"+v.name, id)
			res, t, err := replayOnce(l.s, l.path, v.hooks(pass))
			l.spans.end(pass)
			if err != nil {
				return fmt.Errorf("sim.run %s pass %d: %w", v.name, p+1, err)
			}
			if diff := sameWork(ref, res); diff != "" {
				return fmt.Errorf("sim.run %s pass %d changed the simulated outcome: %s", v.name, p+1, diff)
			}
			if p == 0 || t.Replay < v.best {
				v.best = t.Replay
			}
		}
	}
	plain := variants[0].best
	l.set("sim.run_ns_per_req", plain, l.s.Measured)
	l.values["bench.trace_overhead_rel"] = variants[1].best.Seconds()/plain.Seconds() - 1
	l.values["live.overhead_rel"] = variants[2].best.Seconds()/plain.Seconds() - 1
	return nil
}

func (l *ladder) generator() error {
	d, err := l.rung("workload.gen", func() (start time.Time, err error) {
		bw, err := trace.NewBinaryWriter(io.Discard, trace.BinaryHeader{PageBytes: ftl.DefaultPageBytes})
		if err != nil {
			return start, err
		}
		start = time.Now()
		if err := l.s.generate(l.seed, bw.WriteRequest); err != nil {
			return start, err
		}
		return start, bw.Finish()
	})
	if err != nil {
		return err
	}
	l.set("workload.gen_ns_per_req", d, l.s.records())
	return nil
}

// derive fills the adjacent-rung differences and each rung's share of the
// top rung's cost. Per-op and per-page rungs are scaled to a request by the
// reference replay's exact counts.
func (l *ladder) derive(m *ftl.Metrics) {
	v := l.values
	run := v["sim.run_ns_per_req"]
	reqs := float64(l.s.Measured)
	opsPerReq := float64(m.FlashReads+m.FlashPrograms+m.FlashErases) / reqs
	pagesPerReq := float64(m.PageAccesses()) / reqs
	v["host.self_ns_per_req"] = v["host.replay_ns_per_req"] - v["ftl.serve_ns_per_req"]
	v["sim.self_ns_per_req"] = run - v["host.replay_ns_per_req"]
	for _, sh := range []struct {
		name   string
		perReq float64
	}{
		{"trace.decode_share", v["trace.decode_ns_per_req"]},
		{"host.route_share", v["host.route_ns_per_req"]},
		{"ssd.admit_share", v["ssd.admit_ns_per_req"]},
		{"ssd.sched_share", v["ssd.sched_ns_per_op"] * opsPerReq},
		{"flash.op_share", v["flash.op_ns"] * opsPerReq},
		{"core.translate_share", v["core.translate_ns_per_page"] * pagesPerReq},
		{"ftl.serve_share", v["ftl.serve_ns_per_req"]},
		{"host.replay_share", v["host.replay_ns_per_req"]},
		{"host.self_share", v["host.self_ns_per_req"]},
		{"sim.self_share", v["sim.self_ns_per_req"]},
	} {
		v[sh.name] = ratio(sh.perReq, run)
	}
}

// runLadder climbs every rung and returns the ladder's metrics.
func runLadder(s spec, seed int64, path string, ref *sim.Result, spans *spanRecorder) (map[string]float64, error) {
	st, err := trace.OpenBinary(path)
	if err != nil {
		return nil, err
	}
	l := &ladder{s: s, seed: seed, path: path, maxEnd: st.MaxEnd(), spans: spans, values: map[string]float64{}}
	l.all = make([]trace.Request, st.Records())
	n, err := st.Next(l.all)
	st.Close()
	if err != nil || int64(n) != s.records() {
		return nil, fmt.Errorf("loading %s: %d of %d records: %v", path, n, s.records(), err)
	}
	for _, step := range []func() error{
		l.decode, l.route, l.admit, l.sched, l.flashOps, l.translators,
		l.serve, l.hostReplay, func() error { return l.simRuns(ref) }, l.generator,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	l.derive(&ref.M)
	return l.values, nil
}
