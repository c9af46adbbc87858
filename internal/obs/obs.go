// Package obs is the simulator's observability layer: fixed-bucket
// log-linear latency histograms recorded per request and attributed by
// phase, a Chrome trace_event span tracer for the event scheduler, and the
// JSONL schema of the periodic metrics export.
//
// The package is a leaf: it imports nothing but the standard library, so
// every layer of the stack (internal/ftl, internal/ssd, internal/sim, the
// CLIs) can use it without cycles. Two invariants govern every hook:
//
//   - Observability reads the simulated clock and never advances it: arming
//     a tracer or an exporter must leave every simulated metric — timings,
//     counters, the scheduler's EventHash — bit-for-bit unchanged.
//   - The disabled path is allocation-free: Histogram.Record is a plain
//     array increment, and tracer hooks sit behind nil checks (the
//     AllocsPerRun guards pin both).
package obs

// Phase labels the activity a per-request latency observation is attributed
// to. The taxonomy follows the paper's response-time decomposition (Eqs.
// 1–11): queueing, address translation split by cache outcome, the user
// data flash operation, translation writebacks, and GC stalls.
type Phase uint8

const (
	// PhaseQueue is the admission wait: admit − arrival.
	PhaseQueue Phase = iota
	// PhaseXlateHit is the translation flash time of requests whose every
	// cache lookup hit (zero unless an unrelated translation read ran).
	PhaseXlateHit
	// PhaseXlateMiss is the translation flash time of requests that took at
	// least one demand miss whose load prefetched nothing.
	PhaseXlateMiss
	// PhaseXlatePrefetch is the translation flash time of requests whose
	// miss loads also installed prefetched entries.
	PhaseXlatePrefetch
	// PhaseData is the user data flash time (page reads and programs).
	PhaseData
	// PhaseWriteback is the flash time of translation-page updates during
	// address translation: dirty-eviction and batch writebacks, including
	// their read-modify-write reads.
	PhaseWriteback
	// PhaseGCStall is the garbage-collection flash time charged inside the
	// request (the GC run the request triggered and waited out).
	PhaseGCStall
	// PhaseResponse is the full response time: arrival → completion.
	PhaseResponse
	// PhaseTrim is the flash time of TRIM/discard requests: the
	// translation-page rewrites that make the discard durable.
	PhaseTrim
	// PhaseFlush is the flash time of host flush barriers: the bounded
	// dirty-entry writeback forced by the flush.
	PhaseFlush

	// NumPhases is the number of phases; Metrics carries one Histogram per
	// phase in this order.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"queue",
	"xlate_hit",
	"xlate_miss",
	"xlate_prefetch",
	"data",
	"writeback",
	"gc_stall",
	"response",
	"trim",
	"flush",
}

// String returns the phase's stable export name (the JSONL schema key).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseByName returns the phase with the given export name.
func PhaseByName(name string) (Phase, bool) {
	for p := Phase(0); p < NumPhases; p++ {
		if phaseNames[p] == name {
			return p, true
		}
	}
	return NumPhases, false
}

// Op labels one scheduled flash operation in the span trace. GC variants
// are distinct ops so a trace distinguishes a foreground translation read
// from the same read issued while collecting a victim block.
type Op uint8

const (
	// OpUnknown is the label of operations issued without one (the plain
	// Scheduler.Issue entry point used by tests).
	OpUnknown Op = iota
	OpDataRead
	OpDataProgram
	OpTransRead
	OpTransProgram
	OpErase
	OpGCDataRead
	OpGCDataProgram
	OpGCTransRead
	OpGCTransProgram
	OpGCErase

	// NumOps is the number of operation labels.
	NumOps
)

var opNames = [NumOps]string{
	"op",
	"data_read",
	"data_program",
	"trans_read",
	"trans_program",
	"erase",
	"gc_data_read",
	"gc_data_program",
	"gc_trans_read",
	"gc_trans_program",
	"gc_erase",
}

// String returns the op's stable trace name.
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return "op"
}

// GC returns the garbage-collection variant of a foreground op (identity
// for ops that already are GC variants or have none).
func (o Op) GC() Op {
	if o >= OpDataRead && o <= OpErase {
		return o + (OpGCDataRead - OpDataRead)
	}
	return o
}
