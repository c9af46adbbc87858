package ssd

import (
	"time"

	"repro/internal/trace"
)

// Server is the device-side contract the admitter drives: serve one request
// admitted at the given simulated time and report its completion time.
// Logical effects apply in admission order (the FTL is a sequential state
// machine); only the timing of requests overlaps.
type Server interface {
	ServeAt(req trace.Request, admit time.Duration) (complete time.Duration, err error)
}

// FrontendStats summarizes one replay's queueing behavior. The zero value
// is the well-defined result of an empty replay: no admissions, zero
// depths, MeanDepth 0. Open-loop runs report real observations too — the
// in-flight count at each admission, however deep the burst — not
// sentinels.
type FrontendStats struct {
	Admitted int64
	// MaxDepth is the largest in-flight count observed at any admission.
	MaxDepth int64
	// DepthSum accumulates the in-flight count (the just-admitted request
	// included) at every admission; MeanDepth is the ratio.
	DepthSum int64
}

// MeanDepth returns the mean in-flight depth at admission. An empty replay
// reports 0, never NaN — divide-by-zero is guarded here so every caller
// inherits the guard.
func (s FrontendStats) MeanDepth() float64 {
	if s.Admitted == 0 {
		return 0
	}
	return float64(s.DepthSum) / float64(s.Admitted)
}

// Admitter is the request-admission queue in front of a device — the only
// implementation of admission in the tree. Two modes:
//
//   - open loop (queue depth 0): every request is admitted at its trace
//     arrival time, regardless of how many are still in flight — the
//     backend's die windows absorb the burst. This replays
//     trace.Request.Arrival semantics faithfully.
//   - closed loop (queue depth N > 0): at most N requests are in flight;
//     request i+N is admitted at the later of its arrival and the earliest
//     completion among the N outstanding — the standard QD-N driver.
//
// The queue survives between Admit calls, so a caller feeds requests one
// batch at a time — a streamed trace — and gets exactly the schedule of one
// pass over the concatenated stream. Construct with NewAdmitter; the zero
// value is a valid open-loop admitter.
type Admitter struct {
	qd int
	q  EventQueue
	st FrontendStats
}

// NewAdmitter returns an admitter with the given queue depth (zero or
// negative selects open loop).
func NewAdmitter(queueDepth int) *Admitter {
	return &Admitter{qd: queueDepth}
}

// Occupy marks one queue slot busy until the given simulated time, before
// the first Admit. A depth-1 closed loop whose single slot is occupied until
// the device's current clock admits every request at max(arrival, device
// idle) — the scalar-clock behavior of Device.Serve — even when the device
// was preconditioned or warmed up before this admitter existed.
func (a *Admitter) Occupy(until time.Duration) {
	a.q.Push(Event{Time: until})
}

// Admit admits one request under the queue-depth policy and serves it on s.
// Requests must arrive in non-decreasing trace order across all calls.
func (a *Admitter) Admit(s Server, r trace.Request) (time.Duration, error) {
	arrival := time.Duration(r.Arrival)
	admit := arrival
	if a.qd > 0 {
		// Closed loop: wait for a slot. Completions already in the
		// past free their slots without delaying admission.
		for a.q.Len() >= a.qd {
			e := a.q.Pop()
			if e.Time > admit {
				admit = e.Time
			}
		}
	}
	a.q.DrainThrough(admit)
	complete, err := s.ServeAt(r, admit)
	if err != nil {
		return 0, err
	}
	a.st.Admitted++
	a.q.Push(Event{Time: complete, Seq: a.st.Admitted})
	depth := int64(a.q.Len())
	a.st.DepthSum += depth
	if depth > a.st.MaxDepth {
		a.st.MaxDepth = depth
	}
	return complete, nil
}

// Stats returns the queueing statistics accumulated so far.
func (a *Admitter) Stats() FrontendStats { return a.st }
