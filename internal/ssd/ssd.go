// Package ssd models the parallel backend of a multi-channel SSD: an
// event-driven simulated clock over channels × dies, and a frontend queue
// that admits requests open-loop (by trace arrival time) or closed-loop
// (bounded queue depth).
//
// The flash chip (internal/flash) stays a pure state machine and the FTL
// (internal/ftl) stays a sequential program; this package owns *time*. The
// device does not call the Scheduler while it applies a request: it logs each
// flash operation it issues (page, latency, label, whether a new chain starts
// there) in its operation log, and the device's timing half replays that log
// into the Scheduler — right after each record on the serving goroutine, or on
// a goroutine of its own fed chunks of the log (ftl.Device.StartTiming). Either
// way the Scheduler sees the same calls in the same order. Each operation is
// placed on the die its block lives on, at a start time that respects two
// constraints:
//
//   - die occupancy: a die executes one operation at a time, so operations
//     on the same die serialize behind its busy-until window;
//   - intra-request dependency: operations in one dependency chain (the
//     translation read that resolves a page, then the data access; a GC run
//     blocking the write that triggered it) start only after their
//     predecessor completes.
//
// Operations on different dies with no dependency between them overlap, so
// a request striped across channels — or several requests in flight under a
// deep queue — finishes in the max, not the sum, of its parts. Completed
// requests retire through a min-heap of completion events (EventQueue),
// which the frontend uses to admit the next request the moment a slot
// frees, and from which the device's clock (latest retired completion)
// derives.
//
// Determinism: the simulation never consults wall time or shared mutable
// state; the same request sequence against the same geometry produces the
// same schedule bit-for-bit. Scheduler.EventHash folds every (die, start,
// end) triple into a hash so tests can assert two runs scheduled
// identically, not just that their summary metrics agree.
//
// Compatibility rule: with 1 channel × 1 die and queue depth 1 every
// operation serializes on the single die in issue order, which makes each
// request's span equal the sum of its operation latencies — exactly the
// scalar-clock model this package replaced. The golden tests in
// internal/ftl and internal/sim hold that equality bit-for-bit.
package ssd

import (
	"time"

	"repro/internal/cacheline"
	"repro/internal/obs"
)

// Scheduler is the event-driven clock of one device. It tracks per-die
// busy-until windows, the dependency chain of the request being served, and
// per-channel busy-time accounting.
//
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	channels int
	dies     int // total dies = channels × dies-per-channel

	dieFree []time.Duration // per-die busy-until window
	dieBusy []time.Duration // per-die cumulative busy time

	admit   time.Duration // admission time of the request being served
	chain   time.Duration // completion of the chain's latest operation
	reqEnd  time.Duration // completion of the request's latest operation
	retired time.Duration // latest completion among finished requests

	ops int64  // operations scheduled (all requests)
	sum uint64 // order-sensitive FNV fold of every scheduled op

	// tracer, when non-nil, receives every scheduled operation as a span;
	// parent is the trace id of the current chain's latest operation, so
	// spans record the dependency edge that serialized them. Tracing reads
	// the schedule and never changes it.
	tracer *obs.Tracer
	parent int64
}

// NewScheduler builds a scheduler for channels × diesPerChannel dies.
// Non-positive counts read as 1.
func NewScheduler(channels, diesPerChannel int) *Scheduler {
	if channels <= 0 {
		channels = 1
	}
	if diesPerChannel <= 0 {
		diesPerChannel = 1
	}
	n := channels * diesPerChannel
	return cacheline.Isolated(Scheduler{
		channels: channels,
		dies:     n,
		dieFree:  cacheline.IsolatedSlice[time.Duration](n),
		dieBusy:  cacheline.IsolatedSlice[time.Duration](n),
		sum:      1469598103934665603, // FNV-1a offset basis
	})
}

// Channels returns the channel count.
func (s *Scheduler) Channels() int { return s.channels }

// Dies returns the total die count.
func (s *Scheduler) Dies() int { return s.dies }

// Now returns the device clock: the completion time of the latest retired
// request.
func (s *Scheduler) Now() time.Duration { return s.retired }

// Ops returns the number of operations scheduled so far.
func (s *Scheduler) Ops() int64 { return s.ops }

// SetTracer attaches (or with nil, detaches) a span tracer. Every scheduled
// operation is then also emitted as a Chrome trace_event span on its die's
// track, with the causal parent that serialized it.
func (s *Scheduler) SetTracer(t *obs.Tracer) { s.tracer = t }

// BeginRequest opens a request admitted at the given time. Subsequent
// Issue calls chain from it until BreakChain or EndRequest.
func (s *Scheduler) BeginRequest(admit time.Duration) {
	s.admit, s.chain, s.reqEnd = admit, admit, admit
	s.parent = 0
}

// BreakChain starts a new dependency chain at the request's admission time.
// The device calls it between per-page sub-operations of one request: pages
// have no data dependency on each other, so their flash operations may
// overlap when striped across different dies.
func (s *Scheduler) BreakChain() {
	s.chain = s.admit
	s.parent = 0
}

// Issue schedules one operation of latency lat on die. It starts at the
// later of the chain's ready time and the die's busy-until window, occupies
// the die for lat, extends the chain, and returns the completion time.
//
//ftl:hotpath
func (s *Scheduler) Issue(die int, lat time.Duration) time.Duration {
	return s.IssueOp(die, lat, obs.OpUnknown)
}

// IssueOp is Issue with an operation label for the span trace. The label
// affects only tracing: schedule, metrics, and EventHash are identical for
// every op value.
//
//ftl:hotpath
func (s *Scheduler) IssueOp(die int, lat time.Duration, op obs.Op) time.Duration {
	start := s.chain
	if s.dieFree[die] > start {
		start = s.dieFree[die]
	}
	end := start + lat
	s.dieFree[die] = end
	s.dieBusy[die] += lat
	s.chain = end
	if end > s.reqEnd {
		s.reqEnd = end
	}
	s.ops++
	s.record(die, start, end)
	if t := s.tracer; t != nil {
		s.parent = t.FlashOp(op, die, die%s.channels, start, end, s.parent)
	}
	return end
}

// EndRequest retires the open request and returns its completion time (the
// max over its operations' completions; the admission time if it issued no
// flash operation). The device clock never moves backwards: out-of-order
// completions under deep queues keep the latest retirement.
func (s *Scheduler) EndRequest() time.Duration {
	if s.reqEnd > s.retired {
		s.retired = s.reqEnd
	}
	return s.reqEnd
}

// DieBusy returns the cumulative busy time of die.
func (s *Scheduler) DieBusy(die int) time.Duration { return s.dieBusy[die] }

// ChannelBusy returns the cumulative busy time of channel: the sum over its
// dies. Die d belongs to channel d mod Channels, matching
// flash.Config.ChannelOfDie.
func (s *Scheduler) ChannelBusy(ch int) time.Duration {
	var sum time.Duration
	for d := ch; d < s.dies; d += s.channels {
		sum += s.dieBusy[d]
	}
	return sum
}

// record folds one scheduled operation into the event hash (an FNV-style
// xor-multiply over the (die, start, end) words). The fold is
// order-sensitive: the same operation set in a different schedule order
// yields a different EventHash.
//
//ftl:hotpath
func (s *Scheduler) record(die int, start, end time.Duration) {
	s.sum = fnvWord(s.sum, uint64(die))
	s.sum = fnvWord(s.sum, uint64(start))
	s.sum = fnvWord(s.sum, uint64(end))
}

// EventHash returns a deterministic, order-sensitive fold of every
// (die, start, end) triple scheduled so far. Two runs with equal hashes
// scheduled the same events in the same order — the scheduler-determinism
// property the tests assert across runs and processes.
func (s *Scheduler) EventHash() uint64 { return s.sum }

// fnvWord folds one 64-bit word into the hash: xor, then the FNV prime
// multiply, then a shift-xor to diffuse the high bits back down. One fold per
// word instead of FNV-1a's one per byte — the byte loop was the single
// hottest frame in the scheduler profile (it runs three times per flash
// operation), and the tests need only run-to-run equality plus
// order-sensitivity, both of which the word-level fold preserves.
func fnvWord(h, v uint64) uint64 {
	h = (h ^ v) * 1099511628211
	return h ^ h>>32
}
