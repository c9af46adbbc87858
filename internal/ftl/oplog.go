package ftl

import (
	"errors"
	"sync"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// A device serves a request in two halves joined by an operation log.
//
// The logical half (Device.serve) is the FTL: validation, translation, GC,
// chip operations, fault retries and every counter except the timing ones.
// It never reads the simulated clock; what the clock needs it emits as log
// records: a request's begin (arrival, op), one record per
// flash operation (die, latency, trace label, the per-request latency sum it
// is charged to, and whether a new dependency chain starts there), and the
// request's end (its translation class) or failure.
//
// The timing half (timeline: begin, brk, issue, end) is the event-driven
// clock: it consumes the records in log order and drives the scheduler
// through BeginRequest, BreakChain, IssueOp and EndRequest, then keeps the
// response-time accounting and the phase histograms. It is the only code
// that advances the clock, so the schedule — and the EventHash — is a
// function of the log alone.
//
// The timing half runs in one of two places:
//
//   - Inline (ServeAt, Serve, and a host without a spare core): each record's
//     fields go to the timing half as soon as they are emitted, on the
//     serving goroutine, from the admission time the caller gave. Nothing
//     accumulates, and the timing work interleaves with the logical work.
//   - Pipelined (StartTiming … StopTiming): the records fill fixed chunks
//     that a goroutine of its own steps through, admitting each logged
//     request through the caller's ssd.Admitter, while the logical half goes
//     on with the next requests.
//
// The simulated results are the same either way, because nothing the logical
// half does depends on time.

// logRec is one record of the operation log: two words, which put stores
// with two instructions in a body small enough to be inlined.
type logRec struct {
	t    time.Duration // recBegin: arrival; recOp: latency
	meta recMeta
}

// recMeta packs a record's other fields: an operation's die in the low 32
// bits, then a byte each for the kind, the op (recBegin: trace.Op; recOp:
// obs.Op) and the flag bits (recOp: latency sum | recBreak; recEnd: recMiss |
// recPrefetch).
type recMeta uint64

func pack(kind recKind, op, bits uint8, die int) recMeta {
	return recMeta(uint32(die)) | recMeta(kind)<<32 | recMeta(op)<<40 | recMeta(bits)<<48
}

func (m recMeta) die() int      { return int(uint32(m)) }
func (m recMeta) kind() recKind { return recKind(m >> 32) }
func (m recMeta) op() uint8     { return uint8(m >> 40) }
func (m recMeta) bits() uint8   { return uint8(m >> 48) }

type recKind uint8

const (
	recBegin recKind = iota
	recOp
	recEnd
	recFail
)

// The per-request latency sums an operation is charged to: the phase
// histograms' translation, data, writeback and GC-stall attribution.
const (
	sumXlate = iota
	sumData
	sumWB
	sumGC
	numSums

	sumMask = 3
)

// Flag bits of a record's bits.
const (
	recBreak    = 1 << 2 // recOp: a new dependency chain starts at this operation
	recMiss     = 1 << 0 // recEnd: a cache lookup of the request missed
	recPrefetch = 1 << 1 // recEnd: a miss load prefetched extra entries
)

// logChunkRecs sizes a chunk to exactly 16 KiB, an allocator size class, and
// logChunks chunks — the writer's staging chunk and the ones in circulation —
// bound a pipelined device's log at 64 KiB.
const (
	logChunkRecs = 1023
	logChunks    = 4
)

// logChunk is a fixed run of log records; n of them are written. A request
// whose records do not fit in one chunk continues in the next.
type logChunk struct {
	n    int
	recs [logChunkRecs]logRec
}

// oplog is the logical half's write end of the log.
type oplog struct {
	// c is the chunk being written while the timing half is pipelined — the
	// pipe's staging chunk; nil while it is inline, which consumes each
	// record as it is emitted.
	c *logChunk
	// brk records a chain break for the next operation's record to carry.
	brk bool
}

// pipe is what a pipelined device adds to its log: the chunks and the two
// queues they circulate on. Allocated by the first StartTiming and kept for
// every later one; while the timing half is inline, the circulating chunks
// all wait in free.
//
// The logical half writes its records into stage, a chunk the timing
// goroutine never sees, and copies a full stage into a free chunk in one go
// (flushLog). Writing into the circulating chunks directly costs more: their
// lines were last read on the other core, so every store has to take its
// line back, and those stores, strewn through the logical half's own work,
// held up everything behind them (on a 2-vCPU Xeon VM the benchmark's seqread
// replay ran 8 % slower pipelined than inline); the copy takes the lines back
// in one sequential burst.
//
// Both queues hold logChunks entries: every chunk, and the end marker, fits,
// so no send ever waits.
type pipe struct {
	stage *logChunk
	full  chan *logChunk // written, in log order; nil marks the end
	free  chan *logChunk // consumed, for the writer to refill
	wg    sync.WaitGroup
}

// timeline is the timing half: the clock and everything only it writes
// (Device.tl).
type timeline struct {
	sched *ssd.Scheduler

	// The timing-owned Metrics fields. The phase histograms are recorded
	// straight into the device's Metrics, which has room for them and whose
	// other fields next to them nothing writes during a replay; a second
	// copy would cost 54 KB a device.
	requests     int64
	serviceTime  time.Duration
	responseTime time.Duration
	queueTime    time.Duration
	maxResponse  time.Duration
	phases       *[obs.NumPhases]obs.Histogram

	resetAt time.Duration // simulated time of the last metrics reset
	// busyAtReset snapshots per-channel busy time at the last metrics
	// reset, so Metrics reports busy deltas of the measured phase only.
	busyAtReset [MaxChannels]time.Duration

	// The request being stepped: its arrival and op from its begin record,
	// and its operations' latencies summed by sumXlate…sumGC. complete is
	// the completion time of the last request retired.
	arrival  time.Duration
	op       trace.Op
	sums     [numSums]time.Duration
	complete time.Duration

	// Pipelined only: the read cursor (the next record is c.recs[ri]) and
	// the device's pipe.
	c    *logChunk
	ri   int
	pipe *pipe
	// dev is read for its observers only (see end).
	dev *Device
}

func newTimeline(cfg Config, d *Device) timeline {
	return timeline{
		sched:  ssd.NewScheduler(cfg.Channels, cfg.Dies),
		phases: &d.m.Phases,
		dev:    d,
	}
}

// fold copies the timing-owned metrics into m, whose geometry echo
// (Channels) is already set.
func (t *timeline) fold(m *Metrics) {
	m.Requests = t.requests
	m.ServiceTime = t.serviceTime
	m.ResponseTime = t.responseTime
	m.QueueTime = t.queueTime
	m.MaxResponse = t.maxResponse
	for c := 0; c < m.Channels && c < MaxChannels; c++ {
		m.ChanBusy[c] = t.sched.ChannelBusy(c) - t.busyAtReset[c]
	}
	if now := t.sched.Now(); now > t.resetAt {
		m.Elapsed = now - t.resetAt
	}
}

// reset zeroes the timing metrics (the phase histograms go with the
// device's Metrics) and re-bases busy and elapsed time at the current
// simulated time.
func (t *timeline) reset() {
	t.requests, t.serviceTime, t.responseTime, t.queueTime, t.maxResponse = 0, 0, 0, 0, 0
	for c := 0; c < t.sched.Channels() && c < MaxChannels; c++ {
		t.busyAtReset[c] = t.sched.ChannelBusy(c)
	}
	t.resetAt = t.sched.Now()
}

// errRequestFailed is what the timing half reports for a request whose
// logical half failed; the logical half returns the real error.
var errRequestFailed = errors.New("ftl: logged request failed")

// --- Write end (logical half) ----------------------------------------------

// The logical half emits each record where it arises (serve, issuePage,
// breakChain). Inline, the record's fields go straight to the timing half's
// function for its kind: begin, brk, issue, end (a failure needs nothing —
// its request is never retired). Pipelined, the record is stored in the next
// slot of the chunk being written (put), a chain break riding on the next
// operation's record, and step hands the fields to the same functions on the
// timing goroutine.

// put stores r in the next slot of the chunk being written, handing the
// chunk to the timing goroutine first when it is full.
func (d *Device) put(r logRec) {
	c := d.log.c
	if c.n == len(c.recs) {
		c = d.flushLog()
	}
	c.recs[c.n] = r
	c.n++
}

// flushLog copies the staging chunk's records into a free chunk, hands that
// to the timing goroutine, and returns the emptied staging chunk.
func (d *Device) flushLog() *logChunk {
	p, c := d.pipe, d.log.c
	out := <-p.free
	out.n = copy(out.recs[:], c.recs[:c.n])
	p.full <- out
	c.n = 0
	return c
}

// --- Read end (timing half) ------------------------------------------------

// step is the timing half's entry point for a stored record: it dispatches
// on the record's kind and reports done with the request's last record — an
// end, or a failure, whose request is never retired: its operations are
// issued exactly as far as the logical half got, and step reports
// errRequestFailed.
//
// The timing half reads only the timeline and the record: a pipelined
// timing goroutine that loaded a field of the Device would pull the cache
// lines the logical half writes on every operation across the cores.
func (t *timeline) step(r logRec, admit time.Duration) (done bool, err error) {
	switch r.meta.kind() {
	case recBegin:
		t.begin(r.t, trace.Op(r.meta.op()), admit)
	case recOp:
		bits := r.meta.bits()
		if bits&recBreak != 0 {
			t.brk()
		}
		t.issue(r.meta.die(), r.t, obs.Op(r.meta.op()), bits)
	case recEnd:
		t.end(r.meta.bits(), admit)
		return true, nil
	case recFail:
		return true, errRequestFailed
	}
	return false, nil
}

// begin opens the request of a begin record — its arrival and op — at
// admit.
func (t *timeline) begin(arrival time.Duration, op trace.Op, admit time.Duration) {
	t.sched.BeginRequest(admit)
	t.arrival, t.op = arrival, op
	t.sums = [numSums]time.Duration{}
}

// brk starts a new dependency chain: the break an operation record carries
// ahead of its operation.
func (t *timeline) brk() { t.sched.BreakChain() }

// issue schedules an operation record — latency lat, label op — on its die
// and charges lat to the sum bits name. It is small enough to be inlined
// into the logical half's inline path.
func (t *timeline) issue(die int, lat time.Duration, op obs.Op, bits uint8) {
	t.sums[bits&sumMask] += lat
	t.sched.IssueOp(die, lat, op)
}

// end retires the request of an end record — admitted at admit, of
// translation class class — through the scheduler's EndRequest, the
// response-time accounting and the phase histograms. For reads and writes,
// translation time goes to exactly one of the hit/miss/prefetch phases —
// classified by whether any cache lookup missed and whether a miss load
// prefetched extra entries — so those three counts sum to the read/write
// request count. Trims and flushes record their flash time into their own
// phases instead. Last, the device's tracer and metrics export see the
// request.
func (t *timeline) end(class uint8, admit time.Duration) {
	complete := t.sched.EndRequest()
	t.complete = complete
	resp := complete - t.arrival
	t.requests++
	t.serviceTime += complete - admit
	t.responseTime += resp
	t.queueTime += admit - t.arrival
	if resp > t.maxResponse {
		t.maxResponse = resp
	}
	ph := t.phases
	ph[obs.PhaseResponse].Record(resp)
	ph[obs.PhaseQueue].Record(admit - t.arrival)
	switch t.op {
	case trace.OpTrim:
		ph[obs.PhaseTrim].Record(t.sums[sumWB])
	case trace.OpFlush:
		ph[obs.PhaseFlush].Record(t.sums[sumWB])
	default:
		xp := obs.PhaseXlateHit
		if class&recMiss != 0 {
			xp = obs.PhaseXlateMiss
			if class&recPrefetch != 0 {
				xp = obs.PhaseXlatePrefetch
			}
		}
		ph[xp].Record(t.sums[sumXlate])
		ph[obs.PhaseData].Record(t.sums[sumData])
		ph[obs.PhaseWriteback].Record(t.sums[sumWB])
	}
	ph[obs.PhaseGCStall].Record(t.sums[sumGC])
	// The sinks sit behind the device's Metrics, on lines nothing writes
	// while a request is served; with any of them attached the timing half
	// is inline anyway (Observed).
	d := t.dev
	if tr := d.tracer; tr != nil {
		tr.RequestSpan(t.op.String(), t.requests, t.arrival, complete)
	}
	if d.metricsW != nil && t.requests%d.metricsEvery == 0 {
		d.exportSnapshot()
	}
}

// --- Pipelined timing --------------------------------------------------------

// StartTiming moves the device's timing half onto a goroutine of its own,
// which admits every request the device logs through adm, in order, while
// the caller goes on serving. Until StopTiming the device must be driven with
// Apply only, and its clock, metrics and event hash — everything the timing
// half owns, adm included — must not be read. The log's chunks are allocated
// by the first call and reused by every later one.
func (d *Device) StartTiming(adm *ssd.Admitter) {
	p := d.pipe
	if p == nil {
		p = &pipe{stage: new(logChunk), full: make(chan *logChunk, logChunks), free: make(chan *logChunk, logChunks)}
		for i := 1; i < logChunks; i++ {
			p.free <- new(logChunk)
		}
		d.pipe = p
	}
	d.log.c = p.stage
	d.log.c.n = 0
	t := &d.tl
	t.pipe, t.c, t.ri = p, nil, 0
	p.wg.Add(1)
	go t.run(adm)
}

// StopTiming hands the timing goroutine the rest of the log and waits for it
// to exit: afterwards the timing half has stepped every record Apply
// logged, and the device serves inline again.
func (d *Device) StopTiming() {
	p := d.pipe
	if d.log.c.n > 0 {
		d.flushLog()
	}
	p.full <- nil
	p.wg.Wait()
	d.log.c = nil
}

// run is the timing goroutine: it admits each logged request through adm,
// whose ServeAt steps the request's records. A failed request's ServeAt
// fails too; the logical half has already reported why.
func (t *timeline) run(adm *ssd.Admitter) {
	defer t.pipe.wg.Done()
	srv := loggedServer{t}
	for {
		if t.c == nil || t.ri == t.c.n {
			if !t.nextChunk() {
				return
			}
			continue
		}
		_, _ = adm.Admit(srv, trace.Request{Arrival: int64(t.c.recs[t.ri].t)})
	}
}

// nextChunk returns the consumed chunk to the writer and moves the read
// cursor to the next full one; false at the end of the log.
func (t *timeline) nextChunk() bool {
	if t.c != nil {
		t.pipe.free <- t.c
	}
	t.c, t.ri = <-t.pipe.full, 0
	return t.c != nil
}

// loggedServer is the ssd.Server the timing goroutine admits through: it
// serves the request at the read cursor by stepping through its records,
// into the next chunk when the request continues there.
type loggedServer struct{ t *timeline }

func (s loggedServer) ServeAt(_ trace.Request, admit time.Duration) (time.Duration, error) {
	t := s.t
	for {
		for c := t.c; t.ri < c.n; {
			r := c.recs[t.ri]
			t.ri++
			if done, err := t.step(r, admit); done {
				return t.complete, err
			}
		}
		if !t.nextChunk() {
			return 0, errRequestFailed
		}
	}
}

// LogBytes returns the memory the operation log holds: nothing while the
// device has only served inline, the pipelined chunks (at most 64 KiB) once
// StartTiming has run.
func (d *Device) LogBytes() int64 {
	if d.pipe == nil {
		return 0
	}
	return logChunks * int64(unsafe.Sizeof(logChunk{}))
}
