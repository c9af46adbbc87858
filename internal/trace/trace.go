// Package trace defines the I/O request model consumed by the simulator and
// parsers for the on-disk trace formats used in the TPFTL paper's evaluation:
// the SPC format of the UMass Financial1/Financial2 traces and the CSV format
// of the MSR Cambridge block traces. A native CSV format is provided for
// synthetic traces written by cmd/tracegen.
package trace

import (
	"fmt"
	"math"
)

// Op is the kind of a block-level request. Beyond plain reads and writes,
// the host interface carries TRIM/discard (drop a logical range without
// writing), flush (make all previously acknowledged writes and discards
// durable), and FUA writes (durable at acknowledgement, bypassing any
// volatile write buffer).
type Op uint8

const (
	// OpRead reads a byte range.
	OpRead Op = iota
	// OpWrite writes a byte range; durability may be deferred to the next
	// flush when a volatile write buffer sits in front of the device.
	OpWrite
	// OpWriteFUA is a forced-unit-access write: durable when acknowledged,
	// never parked in a volatile buffer.
	OpWriteFUA
	// OpTrim discards a byte range: the device unmaps it, subsequent reads
	// return not-mapped, and the freed flash pages become GC-reclaimable
	// without migration.
	OpTrim
	// OpFlush is a barrier carrying no payload (Length 0): everything
	// acknowledged before it must survive a power cut once the flush is
	// acknowledged.
	OpFlush
	// NumOps bounds the op enum.
	NumOps
)

var opNames = [NumOps]string{"read", "write", "write-fua", "trim", "flush"}

// String returns the op's human-readable name.
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsWrite reports whether the op programs user data (plain or FUA write).
func (o Op) IsWrite() bool { return o == OpWrite || o == OpWriteFUA }

// Request is one block-level I/O request.
type Request struct {
	// Arrival is the request arrival time in nanoseconds since trace start.
	Arrival int64
	// Offset is the starting byte address (0 for flush).
	Offset int64
	// Length is the request size in bytes (0 for flush).
	Length int64
	// Op is the request kind.
	Op Op
}

// IsWrite reports whether the request writes user data (OpWrite/OpWriteFUA).
func (r Request) IsWrite() bool { return r.Op.IsWrite() }

// Validate reports whether the request is well formed. A flush carries no
// payload: offset and length must both be zero. Every other op addresses a
// non-empty byte range whose End does not overflow.
func (r Request) Validate() error {
	switch {
	case r.Arrival < 0:
		return fmt.Errorf("trace: negative arrival %d", r.Arrival)
	case r.Op >= NumOps:
		return fmt.Errorf("trace: unknown op %d", uint8(r.Op))
	}
	if r.Op == OpFlush {
		if r.Offset != 0 || r.Length != 0 {
			return fmt.Errorf("trace: flush carries a payload [%d,%d)", r.Offset, r.Offset+r.Length)
		}
		return nil
	}
	switch {
	case r.Offset < 0:
		return fmt.Errorf("trace: negative offset %d", r.Offset)
	case r.Length <= 0:
		return fmt.Errorf("trace: non-positive length %d", r.Length)
	case r.Offset > math.MaxInt64-r.Length:
		return fmt.Errorf("trace: request at %d of %d bytes ends past the largest offset", r.Offset, r.Length)
	}
	return nil
}

// End returns the first byte past the request.
func (r Request) End() int64 { return r.Offset + r.Length }

// Pages returns the inclusive range [first, last] of logical page numbers a
// request touches, given the page size. Flushes touch no pages; callers
// dispatch on Op before asking.
func (r Request) Pages(pageSize int) (first, last int64) {
	first = r.Offset / int64(pageSize)
	last = (r.End() - 1) / int64(pageSize)
	return first, last
}

// PageCount returns how many pages the request spans.
func (r Request) PageCount(pageSize int) int {
	first, last := r.Pages(pageSize)
	return int(last - first + 1)
}

// Stats summarizes a request stream; it mirrors the columns of Table 4 in
// the paper (write ratio, average request size, sequential fractions,
// address-space footprint), extended with the host-interface op counts.
type Stats struct {
	Requests     int
	Writes       int // plain + FUA writes
	FUAWrites    int // FUA subset of Writes
	Trims        int
	Flushes      int
	Bytes        int64 // read + written bytes
	WriteBytes   int64
	TrimBytes    int64
	SeqReads     int   // reads contiguous with the previous request
	SeqWrites    int   // writes contiguous with the previous request
	MaxEnd       int64 // address-space high-water mark
	PageAccesses int64 // total 4 KB page accesses (reads + writes)
	TrimPages    int64 // total 4 KB pages discarded
}

// WriteRatio returns the fraction of requests that are writes.
func (s Stats) WriteRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Writes) / float64(s.Requests)
}

// AvgRequestSize returns the mean read/write request size in bytes.
func (s Stats) AvgRequestSize() float64 {
	rw := s.Requests - s.Trims - s.Flushes
	if rw == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(rw)
}

// SeqReadRatio returns the fraction of reads that directly continue the
// preceding request's address range.
func (s Stats) SeqReadRatio() float64 {
	reads := s.Requests - s.Writes - s.Trims - s.Flushes
	if reads == 0 {
		return 0
	}
	return float64(s.SeqReads) / float64(reads)
}

// SeqWriteRatio returns the fraction of writes that directly continue the
// preceding request's address range.
func (s Stats) SeqWriteRatio() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.SeqWrites) / float64(s.Writes)
}

// SummaryPageBytes is the page size Summarize counts page accesses in. The
// trace package cannot see ftl.Config (ftl imports trace), so the 4 KB
// convention is named here.
const SummaryPageBytes = 4096

// StatsAccum accumulates Stats one request at a time, so a streamed trace
// can be summarized without ever holding it in memory. The zero value is
// ready to use; feed requests in replay order (sequentiality tracking
// compares each request against its predecessor's end address).
type StatsAccum struct {
	s       Stats
	prevEnd int64
	started bool
}

// Add folds one request into the accumulator.
func (a *StatsAccum) Add(r Request) {
	if !a.started {
		a.prevEnd = -1
		a.started = true
	}
	a.s.Requests++
	switch r.Op {
	case OpRead, OpWrite, OpWriteFUA:
		// Payload ops: fall through to the byte/locality accounting.
	case OpFlush:
		a.s.Flushes++
		return
	case OpTrim:
		a.s.Trims++
		a.s.TrimBytes += r.Length
		a.s.TrimPages += int64(r.PageCount(SummaryPageBytes))
		if r.End() > a.s.MaxEnd {
			a.s.MaxEnd = r.End()
		}
		a.prevEnd = r.End()
		return
	}
	a.s.Bytes += r.Length
	if r.IsWrite() {
		a.s.Writes++
		a.s.WriteBytes += r.Length
		if r.Op == OpWriteFUA {
			a.s.FUAWrites++
		}
	}
	if r.Offset == a.prevEnd {
		if r.IsWrite() {
			a.s.SeqWrites++
		} else {
			a.s.SeqReads++
		}
	}
	a.prevEnd = r.End()
	if r.End() > a.s.MaxEnd {
		a.s.MaxEnd = r.End()
	}
	a.s.PageAccesses += int64(r.PageCount(SummaryPageBytes))
}

// Stats returns the statistics accumulated so far.
func (a *StatsAccum) Stats() Stats { return a.s }

// Summarize computes stream statistics over reqs using 4 KB pages.
func Summarize(reqs []Request) Stats {
	var a StatsAccum
	for _, r := range reqs {
		a.Add(r)
	}
	return a.Stats()
}

// Clamp truncates requests to fit within an address space of size bytes,
// wrapping offsets that start beyond it. Replaying a trace captured on a
// larger device against a smaller simulated SSD requires this; the paper
// instead sizes the SSD to the trace's address space, which callers should
// prefer. Flushes pass through untouched.
func Clamp(reqs []Request, size int64) []Request {
	out := make([]Request, 0, len(reqs))
	for _, r := range reqs {
		if r.Op == OpFlush {
			out = append(out, r)
			continue
		}
		r.Offset %= size
		if r.Offset+r.Length > size {
			r.Length = size - r.Offset
		}
		if r.Length <= 0 {
			continue
		}
		out = append(out, r)
	}
	return out
}
