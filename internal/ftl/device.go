package ftl

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// phase labels which activity flash operations are attributed to.
type phase uint8

const (
	phaseAT phase = iota // address translation / user access
	phaseGC
)

// Device is a simulated SSD: flash chip + block management + GC + the
// on-flash mapping table, driven by a pluggable Translator (the
// mapping-cache policy under study).
type Device struct {
	cfg  Config
	chip *flash.Chip
	bm   *blockMgr
	tr   Translator

	entriesPerTP int
	perTP        flash.Divisor // by entriesPerTP: an LPN's translation page by a multiply
	numTPs       int
	logicalPages int64
	gcThreshold  int // cfg.gcThreshold(), fixed at construction: maybeGC reads it per page write

	gtd     []flash.PPN // VTPN → physical translation page
	persist []flash.PPN // LPN → PPN as stored in flash translation pages; written only by setPersist
	// unmapped[v] counts the slots of translation page v whose persisted
	// entry is InvalidPPN, so foldTPPersist knows in O(1) whether the page
	// has anything to fold.
	unmapped []int32

	tpBuf []flash.PPN // padded copy ReadTP returns for a partial last page; nil when every page is full

	// While trimTP waits for its translation-page rewrite, the device holds
	// the live mapping of the trimN LPNs from trimLo it is discarding:
	// Discard has taken them from the translator. Mapped reads them here and
	// collect moves them with their pages. trimN is 0 outside a trim.
	trimLo   LPN
	trimN    int
	trimPPNs []flash.PPN

	// collect's scratch (gc.go). gcHead/gcTail, indexed by VTPN, are valid
	// while the page's gcTouched bit is set; gcTouched is zero between GCs.
	gcMoves   []gcMove
	gcHead    []int32
	gcTail    []int32
	gcTouched []uint64
	gcUps     []EntryUpdate

	// flushMapping's scratch: the dirty pages held whole, the rest, and the
	// batch being written.
	flushWhole, flushPart []uint64
	flushUps              []EntryUpdate

	// log is the operation log that feeds the timing half (tl, below); pipe
	// is non-nil once the timing half has run on a goroutine of its own.
	log     oplog
	pipe    *pipe
	serving bool // inside a request; operations are logged only then

	seq  int64 // program sequence counter (crash-recovery ordering)
	ph   phase
	inGC bool
	// reqMiss and reqPrefetch classify the request being served for the
	// translation-phase histograms; its end record carries them.
	reqMiss     bool
	reqPrefetch bool

	// m holds the logical half's counters, and the phase histograms the
	// timing half records (tl.phases points at m.Phases); tl.fold adds the
	// rest of the timing-owned fields. Nothing after m is written while a
	// request is served, so the histograms' last lines share no line with a
	// field the logical half writes.
	m Metrics

	// Observability (all nil/zero when disabled; the disabled path does no
	// work — see internal/obs). tracer mirrors the scheduler's tracer so the
	// device can emit request spans; metricsW streams a JSONL snapshot every
	// metricsEvery served requests. Each of the three reads the clock per
	// request, so a host keeps an observed device's timing half inline
	// (Observed).
	tracer       *obs.Tracer
	metricsW     *obs.MetricsWriter
	metricsEvery int64
	// live is the shard's telemetry cell (nil when the live plane is off —
	// the disabled path pays one nil check and allocates nothing). Epochs
	// and recorder appends happen only on the serving goroutine.
	live       *live.Cell
	snapSeq    int64
	lastExport obs.Counters

	// OnSample, if set, is invoked every SampleEvery user page accesses
	// with the current page-access count; the Fig. 1/2 instrumentation
	// hooks in here.
	OnSample    func(pageAccesses int64)
	SampleEvery int64

	formatted bool

	// tl is the timing half (see oplog.go): the event-driven clock of the
	// parallel backend, on which flash operations are issued onto the die
	// of their block and overlap when independent (see internal/ssd), and
	// the response-time accounting. At 1 channel × 1 die it reproduces the
	// scalar-clock timing of the original device bit-for-bit. A pipelined
	// timing goroutine writes it on every operation, so it sits between two
	// line pairs of dead space, where no field the logical half touches can
	// share its lines; embedded rather than allocated apart, it costs the
	// inline path no pointer load.
	_  [128]byte
	tl timeline
	_  [128]byte
}

// NewDevice builds a device with the given configuration and policy.
func NewDevice(cfg Config, tr Translator) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalize()
	chip, err := flash.New(cfg.flashConfig())
	if err != nil {
		return nil, err
	}
	entriesPerTP := cfg.PageSize / EntryBytesInFlash
	logicalPages := cfg.LogicalPages()
	numTPs := int((logicalPages + int64(entriesPerTP) - 1) / int64(entriesPerTP))
	bm := newBlockMgr(chip)
	bm.policy = cfg.GCPolicy
	d := &Device{
		cfg:          cfg,
		chip:         chip,
		bm:           bm,
		tr:           tr,
		entriesPerTP: entriesPerTP,
		perTP:        flash.NewDivisor(entriesPerTP),
		numTPs:       numTPs,
		logicalPages: logicalPages,
		gcThreshold:  cfg.gcThreshold(),
		gtd:          make([]flash.PPN, numTPs),
		persist:      make([]flash.PPN, logicalPages),
		unmapped:     make([]int32, numTPs),
		trimPPNs:     make([]flash.PPN, entriesPerTP),
		gcMoves:      make([]gcMove, 0, cfg.PagesPerBlock),
		gcHead:       make([]int32, numTPs),
		gcTail:       make([]int32, numTPs),
		gcTouched:    make([]uint64, (numTPs+63)/64),
		gcUps:        make([]EntryUpdate, 0, cfg.PagesPerBlock),
		flushWhole:   make([]uint64, (numTPs+63)/64),
		flushPart:    make([]uint64, (numTPs+63)/64),
	}
	d.tl = newTimeline(cfg, d)
	if logicalPages%int64(entriesPerTP) != 0 {
		d.tpBuf = make([]flash.PPN, entriesPerTP)
	}
	if ga, ok := tr.(GeometryAware); ok {
		ga.SetGeometry(entriesPerTP)
	}
	for i := range d.gtd {
		d.gtd[i] = flash.InvalidPPN
	}
	for i := range d.persist {
		d.setPersist(int64(i), flash.InvalidPPN)
	}
	return d, nil
}

// Config returns the device configuration (normalized).
func (d *Device) Config() Config { return d.cfg }

// Chip exposes the underlying flash chip (read-only use in tests/benches).
func (d *Device) Chip() *flash.Chip { return d.chip }

// Translator returns the device's mapping policy.
func (d *Device) Translator() Translator { return d.tr }

// Metrics returns a snapshot of the accumulated counters, including the
// parallel backend's per-channel busy time and elapsed simulated time since
// the last reset.
func (d *Device) Metrics() Metrics {
	m := d.m
	fc := d.chip.Config()
	m.Channels = fc.NumChannels()
	m.DiesPerChannel = fc.NumDies() / m.Channels
	d.tl.fold(&m)
	return m
}

// ResetMetrics zeroes the counters (e.g. after a warm-up phase) and re-bases
// the busy-time and elapsed-time accounting at the current simulated time.
// With a live cell attached, the pre-reset totals are first published and
// folded into the cell's monotonic base, so counters scraped off the live
// plane keep growing across the reset (the Prometheus counter contract).
func (d *Device) ResetMetrics() {
	if c := d.live; c != nil {
		d.publishLive()
		m := d.Metrics()
		c.FoldBase(m.Counters())
	}
	d.m = Metrics{}
	d.tl.reset()
	d.lastExport = obs.Counters{}
}

// SetTracer attaches (or with nil, detaches) a span tracer: every flash
// operation the scheduler places becomes a Chrome trace_event span on its
// die's track, and every served request an async span on the request lane.
// Tracing reads the simulated clock and never advances it.
func (d *Device) SetTracer(t *obs.Tracer) {
	d.tracer = t
	d.tl.sched.SetTracer(t)
	if t == nil {
		return
	}
	t.ProcessName(0, "flash dies")
	t.ProcessName(1, "requests")
	fc := d.chip.Config()
	for die := 0; die < fc.NumDies(); die++ {
		t.ThreadName(die, fc.ChannelOfDie(die))
	}
}

// SetLive attaches (or with nil, detaches) the shard's live-telemetry cell.
// Attach before serving; the device publishes immutable epochs into the cell
// at the cell's request-count cadence and appends every request to its
// flight recorder — all from the serving goroutine, the cell's single
// writer. Telemetry reads the simulated clock and never advances it.
func (d *Device) SetLive(c *live.Cell) { d.live = c }

// PublishLive immediately publishes a telemetry epoch from the current
// metrics (end of run or phase boundary). No-op without a cell.
func (d *Device) PublishLive() { d.publishLive() }

// publishLive builds one epoch from the cumulative metrics and swaps it
// into the cell. Cold path: only reached with the live plane enabled.
func (d *Device) publishLive() {
	if c := d.live; c != nil {
		m := d.Metrics()
		c.Publish(int64(d.tl.sched.Now()), m.Counters(), int64(m.MaxResponse))
	}
}

// recordLive appends one served (or failed — complete stays zero) request
// to the flight recorder and publishes an epoch when one is due. The
// recorder ring is pre-allocated and Record is pointer-free, so this
// allocates nothing per request.
func (d *Device) recordLive(c *live.Cell, req *trace.Request, arrival, admit, complete time.Duration) {
	if c == nil {
		return
	}
	c.Recorder().Append(live.Record{
		SimNS:      int64(d.tl.sched.Now()),
		Kind:       liveKind(req.Op),
		Off:        req.Offset,
		N:          req.Length,
		ArrivalNS:  int64(arrival),
		AdmitNS:    int64(admit),
		CompleteNS: int64(complete),
	})
	if c.Due(d.tl.requests) {
		d.publishLive()
	}
}

// liveKind maps a host op onto its flight-recorder record kind.
func liveKind(op trace.Op) live.Kind {
	switch op {
	case trace.OpWrite:
		return live.KindWrite
	case trace.OpWriteFUA:
		return live.KindWriteFUA
	case trace.OpTrim:
		return live.KindTrim
	case trace.OpFlush:
		return live.KindFlush
	default:
		return live.KindRead
	}
}

// SetMetricsExport streams a metrics snapshot (cumulative counters, deltas,
// per-phase quantiles) to w as one JSON line every `every` served requests.
// Arm it after the warm-up ResetMetrics so deltas cover the measured phase.
func (d *Device) SetMetricsExport(w io.Writer, every int64) {
	if w == nil || every <= 0 {
		d.metricsW, d.metricsEvery = nil, 0
		return
	}
	d.metricsW = obs.NewMetricsWriter(w)
	d.metricsEvery = every
	d.snapSeq = 0
	m := d.Metrics()
	d.lastExport = m.Counters()
}

// FinishObservability flushes the observability sinks at end of run: a
// final metrics snapshot when requests were served past the last interval
// boundary, then the JSONL flush and the trace-file footer. A device with
// no sinks armed is untouched.
func (d *Device) FinishObservability() error {
	var firstErr error
	if d.metricsW != nil {
		if d.tl.requests > d.lastExport[obs.CtrRequests] || d.snapSeq == 0 {
			d.exportSnapshot()
		}
		firstErr = d.metricsW.Flush()
	}
	if d.tracer != nil {
		if err := d.tracer.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// exportSnapshot writes one JSONL metrics record stamped with the current
// simulated clock.
func (d *Device) exportSnapshot() {
	m := d.Metrics()
	cur := m.Counters()
	d.snapSeq++
	rec := obs.SnapshotRecord{
		Seq:       d.snapSeq,
		SimTimeNS: int64(d.tl.sched.Now()),
		Requests:  cur[obs.CtrRequests],
		Delta:     cur.Sub(d.lastExport),
		Total:     cur,
		Phases:    m.PhaseSnapshots(),
	}
	d.metricsW.Write(&rec)
	d.lastExport = cur
}

// Now returns the simulated device clock: the completion time of the latest
// retired request.
func (d *Device) Now() time.Duration { return d.tl.sched.Now() }

// Scheduler exposes the event-driven backend clock (tests and the
// simulation harness read utilization and the event hash from it).
func (d *Device) Scheduler() *ssd.Scheduler { return d.tl.sched }

// Observed reports whether a per-request observer is attached: a span
// tracer, a metrics export or a live-telemetry cell. Each reads the clock as
// requests are served, so a host runs an observed device's timing half
// inline rather than beside it (StartTiming).
func (d *Device) Observed() bool { return d.tracer != nil || d.metricsW != nil || d.live != nil }

// Format pre-fills the device: every logical page is written once in LPN
// order and the full mapping table is laid out in translation pages, putting
// the SSD "in full use" as the paper's experiments assume. Formatting
// bypasses the mapping cache and is excluded from all metrics.
func (d *Device) Format() error {
	if d.formatted {
		return errf("device already formatted")
	}
	for lpn := int64(0); lpn < d.logicalPages; lpn++ {
		ppn, _, err := d.bm.alloc(blockData)
		if err != nil {
			return err
		}
		if _, err := d.chipProgram(ppn, flash.Meta{Kind: flash.KindData, Tag: lpn, Seq: d.nextSeq()}); err != nil {
			return err
		}
		d.setPersist(lpn, ppn)
	}
	for v := 0; v < d.numTPs; v++ {
		ppn, _, err := d.bm.alloc(blockTrans)
		if err != nil {
			return err
		}
		if _, err := d.chipProgram(ppn, flash.Meta{Kind: flash.KindTranslation, Tag: int64(v), Seq: d.nextSeq()}); err != nil {
			return err
		}
		d.gtd[v] = ppn
	}
	d.formatted = true
	return nil
}

// Formatted reports whether Format has run.
func (d *Device) Formatted() bool { return d.formatted }

// Precondition ages the device into a GC steady state: it rewrites `writes`
// uniformly random logical pages through the normal allocation and GC paths,
// so block occupancy reaches the organic fragmentation a long-running device
// shows, instead of the all-valid state Format leaves behind. The mapping
// cache is bypassed (persist is updated directly, as the preconditioning
// agent knows the mapping), so measurements start with a cold cache; GC
// triggered during preconditioning still exercises the real Translator
// paths. Call ResetMetrics afterwards.
func (d *Device) Precondition(writes int, seed int64) error {
	return d.PreconditionRange(writes, d.logicalPages, seed)
}

// PreconditionRange is Precondition restricted to LPNs in [0, pages): aging
// only a workload's footprint leaves the cold remainder consolidated in
// fully-valid blocks, as on a long-running device. The LPNs are drawn from a
// generator of its own seeded with seed — never the global math/rand state —
// so the aged state is a function of (writes, pages, seed).
func (d *Device) PreconditionRange(writes int, pages int64, seed int64) error {
	if !d.formatted {
		return errf("Precondition requires a formatted device")
	}
	if pages <= 0 || pages > d.logicalPages {
		pages = d.logicalPages
	}
	rng := rand.New(rand.NewSource(seed))
	d.ph = phaseAT
	for i := 0; i < writes; i++ {
		lpn := LPN(rng.Int63n(pages))
		if err := d.maybeGC(); err != nil {
			return err
		}
		old := d.Mapped(lpn)
		ppn, _, err := d.bm.alloc(blockData)
		if err != nil {
			return err
		}
		if _, err := d.chipProgram(ppn, flash.Meta{Kind: flash.KindData, Tag: int64(lpn), Seq: d.nextSeq()}); err != nil {
			return err
		}
		if old.Valid() {
			if err := d.bm.invalidate(old); err != nil {
				return err
			}
		}
		// A resident entry stays coherent: the optimal FTL holds every
		// entry, and GC during preconditioning has refreshed some of them.
		d.tr.RefreshGC(lpn, ppn)
		d.setPersist(int64(lpn), ppn)
	}
	return nil
}

// Serve executes one request admitted as soon as the device is idle — the
// closed-loop queue-depth-1 admission of the original scalar-clock device —
// and returns its response time (queueing included). Requests must be
// submitted in non-decreasing arrival order. Deeper queues and open-loop
// arrival admission go through ServeAt, driven by ssd.Admitter.
func (d *Device) Serve(req trace.Request) (time.Duration, error) {
	arrival := time.Duration(req.Arrival)
	admit := d.tl.sched.Now()
	if arrival > admit {
		admit = arrival
	}
	complete, err := d.ServeAt(req, admit)
	if err != nil {
		return 0, err
	}
	return complete - arrival, nil
}

// ServeAt executes one request admitted at the given simulated time (never
// before its arrival) and returns its completion time. It implements
// ssd.Server: the frontend picks admission times, the device schedules the
// request's flash operations onto its dies from there. Logical effects
// apply in call order; only timing overlaps between requests. The timing
// half runs inline: each of the request's log records is stepped, from
// admit, as soon as it is emitted.
func (d *Device) ServeAt(req trace.Request, admit time.Duration) (time.Duration, error) {
	if d.log.c != nil {
		return 0, errf("ServeAt while the timing half runs beside the device: use Apply")
	}
	return d.serve(req, admit)
}

// Apply runs the logical half of one request while the timing half runs on
// its own goroutine (StartTiming), which schedules the request once it
// reaches it in the log. It returns the request's error, if any; the
// request's flash operations issued before the error still reach the
// schedule, as under ServeAt.
func (d *Device) Apply(req trace.Request) error {
	if d.log.c == nil {
		return errf("Apply without StartTiming: use ServeAt")
	}
	_, err := d.serve(req, 0)
	return err
}

// serve is the logical half of one request: it changes the device's state,
// and emits the request's begin record, its flash operations in issue order
// and its end — or, when it fails, the operations so far and a failure. With
// the timing half inline it returns the completion time.
func (d *Device) serve(req trace.Request, admit time.Duration) (complete time.Duration, err error) {
	if err := req.Validate(); err != nil {
		return 0, badRequest(err)
	}
	if req.End() > d.cfg.LogicalBytes {
		return 0, badRequest(fmt.Errorf("request [%d,%d) beyond capacity %d", req.Offset, req.End(), d.cfg.LogicalBytes))
	}
	arrival := time.Duration(req.Arrival)
	inline := d.log.c == nil
	if inline {
		if admit < arrival {
			admit = arrival
		}
		if c := d.live; c != nil {
			// Deferred so a failing request — the one a post-mortem cares
			// about — still lands in the flight recorder (complete stays 0).
			defer func() { d.recordLive(c, &req, arrival, admit, complete) }()
		}
	}
	d.ph = phaseAT
	d.serving = true
	d.reqMiss, d.reqPrefetch = false, false
	d.log.brk = false
	if inline {
		d.tl.begin(arrival, req.Op, admit)
	} else {
		d.put(logRec{arrival, pack(recBegin, uint8(req.Op), 0, 0)})
	}
	switch req.Op {
	case trace.OpRead, trace.OpWrite, trace.OpWriteFUA:
		first, last := req.Pages(d.cfg.PageSize)
		d.tr.BeginRequest(LPN(first), LPN(last), req.IsWrite())
		for lpn := LPN(first); lpn <= LPN(last) && err == nil; lpn++ {
			// Page sub-operations of one request carry no dependency on
			// each other: each opens a fresh chain from the admission time,
			// so sub-ops striped onto different dies overlap.
			d.breakChain()
			if req.IsWrite() {
				err = d.writePage(lpn)
			} else {
				err = d.readPage(lpn)
			}
			if err == nil && d.SampleEvery > 0 && d.m.PageAccesses()%d.SampleEvery == 0 && d.OnSample != nil {
				d.OnSample(d.m.PageAccesses())
			}
		}
		if req.Op == trace.OpWriteFUA && err == nil {
			// Every acknowledged program is durable in this device (no
			// volatile data buffer inside), so FUA costs nothing extra
			// here; the counter feeds the host-interface accounting and
			// any buffer wrapped around the device honors write-through.
			d.m.FUAWrites++
		}
	case trace.OpTrim:
		d.m.TrimRequests++
		err = d.trimRequest(req)
	case trace.OpFlush:
		d.m.FlushRequests++
		err = d.flushMapping()
	default:
		err = errf("unhandled request op %v", req.Op)
	}
	if err == nil && SanitizerEnabled {
		err = d.sanitize()
	}
	d.serving = false
	if err != nil {
		if !inline {
			d.put(logRec{0, pack(recFail, 0, 0, 0)})
		}
		return 0, err
	}
	var class uint8
	if d.reqMiss {
		class |= recMiss
	}
	if d.reqPrefetch {
		class |= recPrefetch
	}
	if inline {
		d.tl.end(class, admit)
		return d.tl.complete, nil
	}
	d.put(logRec{0, pack(recEnd, 0, class, 0)})
	return 0, nil
}

// sanitize runs the per-operation invariant suite when the binary is built
// with -tags ftlsan: full device consistency (chip bookkeeping, GTD, every
// mapped page), the live mapping against the translator's dirty set, and
// the translator's own structural checks, when it exposes them.
func (d *Device) sanitize() error {
	var dirty []DirtyEntry
	if t, ok := d.tr.(DirtyLister); ok {
		dirty = t.DirtyCached()
	}
	checks := []func() error{func() error { return d.CheckConsistency(dirty) }}
	if t, ok := d.tr.(interface{ CheckInvariants() error }); ok {
		checks = append(checks, t.CheckInvariants)
	}
	return SanitizeCheck(d.tr.Name(), checks...)
}

// mistranslated reports a page the translator returned for lpn that is not
// lpn's live data: not a valid page (every build checks the state byte,
// which chip.Read loads anyway) or, under ftlsan, which also checks the
// out-of-band tag, another LPN's.
func (d *Device) mistranslated(op string, lpn LPN, ppn flash.PPN) error {
	kind, tag := d.chip.TagOf(ppn)
	return errf("%s mistranslated %s of lpn %d: ppn %d is %v, %v of lpn %d",
		d.tr.Name(), op, lpn, ppn, d.chip.State(ppn), kind, tag)
}

func (d *Device) readPage(lpn LPN) error {
	d.m.PageReads++
	ppn, err := d.tr.Translate(d, lpn)
	if err != nil {
		return err
	}
	if !ppn.Valid() {
		d.m.UnmappedReads++
		return nil
	}
	if d.chip.State(ppn) != flash.PageValid || SanitizerEnabled && !d.holds(ppn, lpn) {
		return d.mistranslated("read", lpn, ppn)
	}
	lat, err := d.chipRead(ppn)
	if err != nil {
		return err
	}
	d.issuePage(d.chip.DieOf(ppn), lat, obs.OpDataRead, sumData)
	d.m.FlashReads++
	return nil
}

func (d *Device) writePage(lpn LPN) error {
	d.m.PageWrites++
	old, err := d.tr.Translate(d, lpn)
	if err != nil {
		return err
	}
	if old.Valid() && (d.chip.State(old) != flash.PageValid || SanitizerEnabled && !d.holds(old, lpn)) {
		return d.mistranslated("write", lpn, old)
	}
	if err := d.maybeGC(); err != nil {
		return err
	}
	// GC may just have migrated this page; invalidate its current
	// location, not the pre-GC one returned by the translator.
	old = d.Mapped(lpn)
	ppn, die, err := d.bm.alloc(blockData)
	if err != nil {
		return err
	}
	lat, err := d.chipProgram(ppn, flash.Meta{Kind: flash.KindData, Tag: int64(lpn), Seq: d.nextSeq()})
	if err != nil {
		return err
	}
	d.issuePage(die, lat, obs.OpDataProgram, sumData)
	d.m.FlashPrograms++
	if old.Valid() {
		if err := d.bm.invalidate(old); err != nil {
			return err
		}
	}
	if err := d.tr.Update(d, lpn, ppn); err != nil {
		d.settle(lpn, ppn)
		return err
	}
	return nil
}

// trimRequest discards the logical pages wholly covered by a TRIM request.
// Trims round inward: a partially-covered page keeps its data (discarding
// it would destroy bytes outside the trimmed range), so a sub-page trim is
// a no-op.
func (d *Device) trimRequest(req trace.Request) error {
	pageSize := int64(d.cfg.PageSize)
	first := (req.Offset + pageSize - 1) / pageSize
	last := req.End()/pageSize - 1
	lpn := LPN(first)
	for lpn <= LPN(last) {
		v := VTPNOf(lpn, d.entriesPerTP)
		end := LPNAt(v+1, 0, d.entriesPerTP) - 1
		if end > LPN(last) {
			end = LPN(last)
		}
		d.breakChain()
		if err := d.trimTP(v, lpn, end); err != nil {
			return err
		}
		lpn = end + 1
	}
	return nil
}

// trimTP makes the discard of [lo, hi] — all inside translation page v —
// durable, then applies it to the live state. The discard durability
// contract (a trimmed LPN must never resurrect its old data after a crash)
// forces a strict order: first rewrite the translation page with the
// trimmed slots cleared (read-modify-write + program, all fault-retried),
// and only once the program has succeeded invalidate the old translation
// page, the trimmed data pages and the live mapping. A power cut anywhere
// before that commit point aborts with the pages still mapped, so the
// device never exposes a discard that would not survive the crash — the
// exact dual of writePage, which maps a page only after its data program
// succeeded.
//
// Trims deliberately bypass WriteTP: WriteTP applies content updates to the
// persisted view before its program (safe for the valid mappings
// translators write back, where a premature entry only goes stale), but a
// premature Invalid would claim a discard is durable when the cut may have
// prevented exactly that.
func (d *Device) trimTP(v VTPN, lo, hi LPN) (err error) {
	// Capture the live mapping, then drop the cached entries: RAM-only
	// state, lost in a crash anyway, and a dirty entry for a trimmed page
	// must never be written back. Until the commit the device holds the
	// captured pages itself (trimPPNs).
	n := int(hi-lo) + 1
	for i := range n {
		d.trimPPNs[i] = d.Mapped(lo + LPN(i))
	}
	d.trimLo, d.trimN = lo, n
	for lpn := lo; lpn <= hi; lpn++ {
		d.tr.Discard(lpn)
	}
	committed := false
	defer func() {
		d.trimN = 0
		if err != nil && !committed {
			// No durable discard, so no discard: the pages stay mapped.
			for i, p := range d.trimPPNs[:n] {
				if p.Valid() {
					d.settle(lo+LPN(i), p)
				}
			}
		}
	}()
	if err := d.maybeGC(); err != nil {
		return err
	}
	old := d.gtd[v]
	if old.Valid() {
		lat, err := d.chipRead(old)
		if err != nil {
			return err
		}
		d.issuePage(d.chip.DieOf(old), lat, obs.OpTransRead, sumWB)
		d.m.FlashReads++
		d.m.TransReadsAT++
	}
	ppn, die, err := d.bm.alloc(blockTrans)
	if err != nil {
		return err
	}
	lat, err := d.chipProgram(ppn, flash.Meta{Kind: flash.KindTranslation, Tag: int64(v), Seq: d.nextSeq()})
	if err != nil {
		return err
	}
	d.issuePage(die, lat, obs.OpTransProgram, sumWB)
	d.m.FlashPrograms++
	d.m.TransWritesAT++
	// Commit point: the cleared translation page is on flash.
	committed = true
	if old.Valid() {
		if err := d.bm.invalidate(old); err != nil {
			return err
		}
	}
	d.gtd[v] = ppn
	d.foldTPPersist(v)
	for i, p := range d.trimPPNs[:n] {
		lpn := lo + LPN(i)
		d.setPersist(int64(lpn), flash.InvalidPPN)
		// GC may have refreshed a discarded slot of a cached page since.
		d.tr.Discard(lpn)
		if p.Valid() {
			if err := d.bm.invalidate(p); err != nil {
				return err
			}
			d.m.TrimmedPages++
		}
	}
	return nil
}

// flushMapping serves a host flush barrier: every dirty cached mapping
// entry is written back, so no acknowledged write's mapping lives only in
// RAM once the flush is acknowledged. (Data pages are always durable at
// acknowledgement in this device; recovery rebuilds their mapping from OOB
// metadata even without the writeback, but the flush bounds the recovery
// scan's exposure and is the contract sim.RunCrash verifies.) The set of
// dirty pages is fixed when the flush starts; the pages the cache holds
// whole go first, then the rest, each in ascending VTPN order, and a page's
// entries are taken right before its own WriteTP (DESIGN §11). A flush that
// wrote a translation page counts as a stall.
func (d *Device) flushMapping() error {
	base := d.m.FlashPrograms
	d.tr.DirtyPages(d.flushWhole, true)
	d.tr.DirtyPages(d.flushPart, false)
	err := d.writeDirty(d.flushWhole, true)
	if err == nil {
		err = d.writeDirty(d.flushPart, false)
	}
	clear(d.flushWhole) // the bitmaps are all zero between flushes
	clear(d.flushPart)
	if err == nil && d.m.FlashPrograms > base {
		d.m.FlushStalls++
	}
	return err
}

// writeDirty writes back every page marked in set that still has dirty
// entries, one translation-page update and one batch writeback each.
func (d *Device) writeDirty(set []uint64, whole bool) error {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			v := VTPN(w<<6 + bits.TrailingZeros64(word))
			d.flushUps = d.tr.TakeDirty(v, d.flushUps[:0])
			if len(d.flushUps) == 0 {
				continue
			}
			d.NoteBatchWriteback(len(d.flushUps) - 1)
			if err := d.WriteTP(v, d.flushUps, whole); err != nil {
				return err
			}
		}
	}
	return nil
}

// setPersist is the only writer of d.persist: it stores lpn's persisted
// entry and keeps unmapped[v] — the count of InvalidPPN slots of lpn's
// translation page — in step, which is what lets foldTPPersist skip a page
// without reading it.
func (d *Device) setPersist(lpn int64, ppn flash.PPN) {
	if was, now := d.persist[lpn] == flash.InvalidPPN, ppn == flash.InvalidPPN; was != now {
		v, _ := d.perTP.DivMod(uint32(lpn))
		if now {
			d.unmapped[v]++
		} else {
			d.unmapped[v]--
		}
	}
	d.persist[lpn] = ppn
}

// foldTPPersist folds the live mapping into the persisted view of
// translation page v: every slot whose persisted entry is unmapped while the
// live mapping is valid takes the live value. Called whenever a new physical
// copy of v is programmed (WriteTP, trim rewrite, GC migration) — the
// rewrite opportunistically persists mappings whose writeback was still
// pending. This keeps recovery's trim rule sound: after any translation
// page program, a persisted-unmapped slot implies the page really is
// unmapped, so "translation page newer than data page + slot unmapped"
// can only mean a durable discard.
//
// Only a page with a persisted-unmapped slot can have anything to fold, and
// unmapped[v] says so without touching the page: after Format that is no
// page at all until the host trims, so the common call costs one load. A
// page with holes pays the walk over its entriesPerTP slots, and a lookup of
// the live mapping per hole, on every program for as long as it keeps one.
func (d *Device) foldTPPersist(v VTPN) {
	if d.unmapped[v] == 0 {
		return
	}
	lo := int64(v) * int64(d.entriesPerTP)
	hi := min64(lo+int64(d.entriesPerTP), d.logicalPages)
	for lpn := lo; lpn < hi; lpn++ {
		if d.persist[lpn] != flash.InvalidPPN {
			continue
		}
		if live := d.Mapped(LPN(lpn)); live.Valid() {
			d.setPersist(lpn, live)
		}
	}
}

// Mapped returns lpn's live mapping: the page trimTP holds while it
// discards lpn, else the translator's resident entry, else the persisted
// translation page. InvalidPPN means unmapped.
func (d *Device) Mapped(lpn LPN) flash.PPN {
	if i := uint64(lpn - d.trimLo); i < uint64(d.trimN) {
		return d.trimPPNs[i]
	}
	if ppn, ok := d.tr.Lookup(lpn); ok {
		return ppn
	}
	return d.persist[lpn]
}

// holds reports whether page p is lpn's live data: a valid data page tagged
// lpn. Only one page can be at a time.
func (d *Device) holds(p flash.PPN, lpn LPN) bool {
	if d.chip.State(p) != flash.PageValid {
		return false
	}
	kind, tag := d.chip.TagOf(p)
	return kind == flash.KindData && tag == int64(lpn)
}

// settle puts ppn, where the chip holds lpn's data, back into the live
// mapping after an operation cut short by an error (a power cut, say) left
// the mapping pointing elsewhere: into the translator's resident entry if it
// has one, else into the persisted view, as foldTPPersist does for a
// pending writeback. So the live mapping stays what a recovery scan of the
// out-of-band tags rebuilds.
func (d *Device) settle(lpn LPN, ppn flash.PPN) {
	if cur := d.Mapped(lpn); cur.Valid() && d.holds(cur, lpn) {
		return
	}
	if !d.tr.RefreshGC(lpn, ppn) {
		d.setPersist(int64(lpn), ppn)
	}
}

// issuePage logs one completed flash operation on die for the timing half,
// which schedules it there and charges its latency to the request's sum
// (sumXlate, sumData or sumWB; every operation issued during GC goes to
// sumGC). The caller passes the die it already holds: alloc returns it with
// the page it hands out, collect derives the victim's once. Only a read of a
// page found through a mapping derives it from the page: DieOf, or readDie
// where the read can run outside a request.
// Operations run outside a request — Format, Precondition, and the GC they
// trigger — keep their metric attribution but are not logged: the measured
// timeline starts pristine, exactly as the scalar-clock device discarded
// pre-measurement latency.
func (d *Device) issuePage(die int, lat time.Duration, op obs.Op, sum uint8) {
	if d.ph == phaseGC {
		d.m.GCTime += lat
		op, sum = op.GC(), sumGC
	}
	if !d.serving {
		return
	}
	if d.log.c == nil {
		d.tl.issue(die, lat, op, sum)
		return
	}
	if d.log.brk {
		sum |= recBreak
		d.log.brk = false
	}
	d.put(logRec{lat, pack(recOp, uint8(op), sum, die)})
}

// readDie returns the die of page p for issuePage, which uses it only while
// a request is served: ReadTP and WriteTP also run in the GC Precondition
// triggers, where it is not derived. (readPage and trimTP run only inside a
// request and call DieOf directly.)
func (d *Device) readDie(p flash.PPN) int {
	if !d.serving {
		return 0
	}
	return d.chip.DieOf(p)
}

// breakChain starts a new dependency chain at the request's admission time:
// the next flash operation of the request depends on none before it. Inline
// the timing half breaks the chain at once; pipelined the next operation's
// record carries the break.
func (d *Device) breakChain() {
	if d.log.c == nil {
		d.tl.brk()
		return
	}
	d.log.brk = true
}

// --- Fault-tolerant chip access ------------------------------------------

// maxFaultRetries returns the per-operation retry budget for transient
// injected faults.
func (d *Device) maxFaultRetries() int {
	if d.cfg.FaultRetries > 0 {
		return d.cfg.FaultRetries
	}
	return 3
}

// chipOp names the chip operation retryOp re-issues.
type chipOp uint8

const (
	opRead chipOp = iota
	opProgram
	opErase
)

// chipRead, chipProgram and chipErase run one chip operation. The no-fault
// path is the chip call and one error test; a failed first attempt goes to
// retryOp.
func (d *Device) chipRead(p flash.PPN) (time.Duration, error) {
	lat, err := d.chip.Read(p)
	if err != nil {
		return d.retryOp(err, opRead, p, flash.Meta{}, -1)
	}
	return lat, nil
}

func (d *Device) chipProgram(p flash.PPN, m flash.Meta) (time.Duration, error) {
	lat, err := d.chip.Program(p, m)
	if err != nil {
		return d.retryOp(err, opProgram, p, m, -1)
	}
	return lat, nil
}

func (d *Device) chipErase(blk flash.BlockID) (time.Duration, error) {
	lat, err := d.chip.Erase(blk)
	if err != nil {
		return d.retryOp(err, opErase, flash.InvalidPPN, flash.Meta{}, blk)
	}
	return lat, nil
}

// retryOp takes over a chip operation whose first attempt failed with err,
// retrying transient injected faults up to the configured budget. Every
// failed attempt still costs the operation's nominal latency (the die spent
// the time before reporting the failure), returned on top of the successful
// attempt's latency so the clock never under-counts. Non-transient errors —
// power cuts, NAND rule violations, worn-out blocks, exhausted retries —
// surface unchanged; the caller must abort its update without touching any
// mapping state it has not yet committed.
func (d *Device) retryOp(err error, op chipOp, p flash.PPN, m flash.Meta, blk flash.BlockID) (time.Duration, error) {
	nominal := d.cfg.ReadLatency
	switch op {
	case opProgram:
		nominal = d.cfg.WriteLatency
	case opErase:
		nominal = d.cfg.EraseLatency
	}
	var penalty time.Duration
	for attempt := 0; ; attempt++ {
		var fe *flash.FaultError
		if !errors.As(err, &fe) {
			return 0, err
		}
		d.m.InjectedFaults++
		if !fe.Transient || attempt >= d.maxFaultRetries() {
			return 0, err
		}
		d.m.FaultRetries++
		penalty += nominal
		var lat time.Duration
		switch op {
		case opRead:
			lat, err = d.chip.Read(p)
		case opProgram:
			lat, err = d.chip.Program(p, m)
		case opErase:
			lat, err = d.chip.Erase(blk)
		}
		if err == nil {
			return penalty + lat, nil
		}
	}
}

// --- Env implementation -------------------------------------------------

// EntriesPerTP implements Env.
func (d *Device) EntriesPerTP() int { return d.entriesPerTP }

// NumTPs implements Env.
func (d *Device) NumTPs() int { return d.numTPs }

// NumLPNs implements Env.
func (d *Device) NumLPNs() int64 { return d.logicalPages }

// ReadTP implements Env: it reads translation page v from flash and returns
// its entries. If the page has never been written (unformatted device), no
// flash operation is charged. A full page is returned as a capacity-clipped
// view of d.persist, not a copy; only a partial last page is copied, to pad
// it to entriesPerTP slots.
func (d *Device) ReadTP(v VTPN) ([]flash.PPN, error) {
	if v < 0 || int(v) >= d.numTPs {
		return nil, errf("ReadTP: vtpn %d out of range [0,%d)", v, d.numTPs)
	}
	if phys := d.gtd[v]; phys.Valid() {
		lat, err := d.chipRead(phys)
		if err != nil {
			return nil, err
		}
		d.issuePage(d.readDie(phys), lat, obs.OpTransRead, sumXlate)
		d.m.FlashReads++
		if d.ph == phaseGC {
			d.m.TransReadsGC++
		} else {
			d.m.TransReadsAT++
		}
	}
	lo := int64(v) * int64(d.entriesPerTP)
	if hi := lo + int64(d.entriesPerTP); hi <= d.logicalPages {
		return d.persist[lo:hi:hi], nil
	}
	n := copy(d.tpBuf, d.persist[lo:])
	for i := n; i < d.entriesPerTP; i++ {
		d.tpBuf[i] = flash.InvalidPPN
	}
	return d.tpBuf, nil
}

// WriteTP implements Env: a translation-page update. Without fullPage it is
// a read-modify-write (Tfr+Tfw, Eq. 1); with fullPage only the program is
// charged (S-FTL's whole-page writeback).
func (d *Device) WriteTP(v VTPN, updates []EntryUpdate, fullPage bool) error {
	if v < 0 || int(v) >= d.numTPs {
		return errf("WriteTP: vtpn %d out of range [0,%d)", v, d.numTPs)
	}
	// Apply the content updates before anything that can trigger GC: a GC
	// run below may itself update this page's persisted entries with
	// fresher values (migrated data pages), which must not be overwritten
	// by the caller's older snapshot afterwards.
	base := int64(v) * int64(d.entriesPerTP)
	for _, u := range updates {
		if u.Off < 0 || u.Off >= d.entriesPerTP {
			return errf("WriteTP: offset %d out of range", u.Off)
		}
		lpn := base + int64(u.Off)
		if lpn >= d.logicalPages {
			return errf("WriteTP: update beyond logical space (vtpn %d off %d)", v, u.Off)
		}
		d.setPersist(lpn, u.PPN)
	}
	// The fresh physical copy opportunistically persists any mapping whose
	// writeback was still pending (see foldTPPersist); unmapped slots after
	// this point are durable discards.
	d.foldTPPersist(v)
	if err := d.maybeGC(); err != nil {
		return err
	}
	old := d.gtd[v]
	if old.Valid() && !fullPage {
		lat, err := d.chipRead(old)
		if err != nil {
			return err
		}
		d.issuePage(d.readDie(old), lat, obs.OpTransRead, sumWB)
		d.m.FlashReads++
		if d.ph == phaseGC {
			d.m.TransReadsGC++
		} else {
			d.m.TransReadsAT++
		}
	}
	ppn, die, err := d.bm.alloc(blockTrans)
	if err != nil {
		return err
	}
	lat, err := d.chipProgram(ppn, flash.Meta{Kind: flash.KindTranslation, Tag: int64(v), Seq: d.nextSeq()})
	if err != nil {
		return err
	}
	d.issuePage(die, lat, obs.OpTransProgram, sumWB)
	d.m.FlashPrograms++
	if d.ph == phaseGC {
		d.m.TransWritesGC++
	} else {
		d.m.TransWritesAT++
	}
	if old.Valid() {
		if err := d.bm.invalidate(old); err != nil {
			return err
		}
	}
	d.gtd[v] = ppn
	return nil
}

// NoteLookup implements Env.
func (d *Device) NoteLookup(hit bool) {
	d.m.Lookups++
	if hit {
		d.m.Hits++
	} else if d.serving && d.ph != phaseGC {
		d.reqMiss = true
	}
}

// NoteReplacement implements Env.
func (d *Device) NoteReplacement(dirty bool) {
	d.m.Replacements++
	if dirty {
		d.m.DirtyReplaced++
	}
}

// NoteBatchWriteback implements Env.
func (d *Device) NoteBatchWriteback(cleaned int) {
	if cleaned > 0 {
		d.m.BatchWritebacks++
		d.m.BatchCleaned += int64(cleaned)
	}
}

// NotePrefetch records entries loaded beyond the demanded one; used by
// prefetching translators.
func (d *Device) NotePrefetch(n int) {
	d.m.PrefetchedLoaded += int64(n)
	if n > 0 && d.serving && d.ph != phaseGC {
		d.reqPrefetch = true
	}
}

// nextSeq returns the next program sequence number; every programmed page
// carries one in its OOB metadata so crash recovery can order versions.
func (d *Device) nextSeq() int64 {
	d.seq++
	return d.seq
}

// --- Verification helpers (tests) ----------------------------------------

// Persisted returns the PPN recorded in flash translation pages for lpn.
func (d *Device) Persisted(lpn LPN) flash.PPN { return d.persist[lpn] }

// GTDEntry returns the physical page of translation page v.
func (d *Device) GTDEntry(v VTPN) flash.PPN { return d.gtd[v] }

// EraseSpread returns the minimum and maximum per-block erase counts — the
// wear imbalance that wear leveling bounds.
func (d *Device) EraseSpread() (min, max int) {
	n := len(d.bm.kinds)
	min = d.chip.EraseCount(0)
	for b := 1; b < n; b++ {
		ec := d.chip.EraseCount(flash.BlockID(b))
		if ec < min {
			min = ec
		}
		if ec > max {
			max = ec
		}
	}
	return min, max
}

// CheckConsistency validates the device-wide invariants: chip bookkeeping,
// the block manager's, the GTD pointing at valid translation pages,
// unmapped[v] recounted from the persisted view, and the live mapping
// (Mapped): every mapped LPN's page is a valid data page tagged with that
// LPN, and there are exactly as many valid data pages as mapped LPNs, so no
// superseded version is left valid. With nil it allocates nothing, so a run
// can afford it after its replay.
//
// Given the translator's dirty cached entries (DirtyLister; non-nil, even
// when empty), it also checks that the live mapping differs from the
// persisted view exactly where a dirty entry holds it. That and the recount
// are what catch a translator that wrote through the view ReadTP handed it.
func (d *Device) CheckConsistency(dirtyCached []DirtyEntry) error {
	if err := d.chip.CheckInvariants(); err != nil {
		return err
	}
	if err := d.bm.check(); err != nil {
		return err
	}
	for v, ppn := range d.gtd {
		if !ppn.Valid() {
			continue
		}
		if st := d.chip.State(ppn); st != flash.PageValid {
			return errf("gtd[%d] = %d in state %v", v, ppn, st)
		}
		if kind, tag := d.chip.TagOf(ppn); kind != flash.KindTranslation || tag != int64(v) {
			return errf("gtd[%d] = %d holds %v tagged %d", v, ppn, kind, tag)
		}
	}
	for v := range d.unmapped {
		lo := int64(v) * int64(d.entriesPerTP)
		hi := min64(lo+int64(d.entriesPerTP), d.logicalPages)
		n := int32(0)
		for _, p := range d.persist[lo:hi] {
			if p == flash.InvalidPPN {
				n++
			}
		}
		if n != d.unmapped[v] {
			return errf("unmapped[%d] = %d, translation page has %d persisted-unmapped slots", v, d.unmapped[v], n)
		}
	}
	if dirtyCached == nil {
		return d.checkLive()
	}
	return d.checkLiveDirty(dirtyCached)
}

// checkLive checks every LPN's live mapping against the chip.
func (d *Device) checkLive() error {
	mapped := 0
	for lpn := LPN(0); int64(lpn) < d.logicalPages; lpn++ {
		p := d.Mapped(lpn)
		if !p.Valid() {
			continue
		}
		if err := d.checkHolds(p, lpn); err != nil {
			return err
		}
		mapped++
	}
	return d.checkMappedCount(mapped)
}

// checkLiveDirty is checkLive given the dirty set, in which the live
// mapping is the persisted one wherever no dirty entry says otherwise. The
// walk reads persist and asks the translator only where the persisted page
// is not the LPN's, merging the set in as it goes, so it costs what a walk
// over two arrays does: the sanitizer runs it after every operation. The set
// must be in strictly ascending LPN order; the first offending entry is
// then the lowest offending LPN.
func (d *Device) checkLiveDirty(dirty []DirtyEntry) error {
	// Every dirty entry must hold the live mapping, and where that is not
	// the persisted page it stands in for it in the count of mapped pages.
	mapped := 0
	for j, e := range dirty {
		if j > 0 && e.LPN <= dirty[j-1].LPN {
			return errf("dirty set out of order: lpn %d after lpn %d", e.LPN, dirty[j-1].LPN)
		}
		if e.LPN < 0 || int64(e.LPN) >= d.logicalPages {
			continue
		}
		if live := d.Mapped(e.LPN); e.PPN != live {
			return errf("dirty cache entry for lpn %d holds %d, live mapping %d", e.LPN, e.PPN, live)
		}
		p := d.persist[e.LPN]
		if e.PPN == p {
			continue
		}
		if p.Valid() && d.holds(p, e.LPN) {
			mapped--
		}
		if e.PPN.Valid() {
			if err := d.checkHolds(e.PPN, e.LPN); err != nil {
				return err
			}
			mapped++
		}
	}
	i := 0
	for lpn := LPN(0); int64(lpn) < d.logicalPages; lpn++ {
		p := d.persist[lpn]
		if !p.Valid() {
			continue
		}
		if d.holds(p, lpn) {
			mapped++
			continue
		}
		// A persisted page that is not the LPN's must be superseded by a
		// dirty entry, counted above.
		for i < len(dirty) && dirty[i].LPN < lpn {
			i++
		}
		if live := d.Mapped(lpn); live == p {
			return d.checkHolds(p, lpn)
		} else if i == len(dirty) || dirty[i].LPN != lpn {
			return errf("lpn %d: live mapping %d != persist %d with no dirty cache entry", lpn, live, p)
		}
	}
	return d.checkMappedCount(mapped)
}

// checkHolds fails unless page p is lpn's live data.
func (d *Device) checkHolds(p flash.PPN, lpn LPN) error {
	if d.holds(p, lpn) {
		return nil
	}
	kind, tag := d.chip.TagOf(p)
	return errf("lpn %d maps to ppn %d: %v, %v of lpn %d", lpn, p, d.chip.State(p), kind, tag)
}

// checkMappedCount fails unless the chip holds exactly mapped valid data
// pages: one per mapped LPN, no superseded version left valid.
func (d *Device) checkMappedCount(mapped int) error {
	valid := 0
	for b, k := range d.bm.kinds {
		if k == blockData {
			valid += d.chip.ValidCount(flash.BlockID(b))
		}
	}
	if valid != mapped {
		return errf("%d valid data pages for %d mapped LPNs", valid, mapped)
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
