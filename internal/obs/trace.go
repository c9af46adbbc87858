package obs

import (
	"bufio"
	"io"
	"strconv"
	"time"
)

// Tracer streams span records in Chrome trace_event JSON ("JSON Object
// Format"), openable in Perfetto or chrome://tracing. Flash operations are
// "X" complete events on a per-die track (pid 0, tid = die); request
// lifetimes are "b"/"e" async pairs. Timestamps are simulated time
// expressed in microseconds with nanosecond precision (three decimals), as
// the format requires.
//
// All record builders append into one reusable buffer with strconv — no
// fmt, no per-event allocation once the buffer has grown to steady state.
// Callers on hot paths must nil-guard the tracer so the disabled path does
// no work at all; a nil Tracer panics on its first event.
type Tracer struct {
	w      *bufio.Writer
	buf    []byte
	events int64
	lastID int64
	err    error
}

// NewTracer starts a trace stream on w. Call Close to terminate the JSON.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
	_, t.err = t.w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	return t
}

// Events returns the number of trace events emitted so far.
func (t *Tracer) Events() int64 { return t.events }

// Err returns the first write error, if any.
func (t *Tracer) Err() error { return t.err }

func (t *Tracer) sep() {
	if t.events > 0 {
		t.buf = append(t.buf, ',', '\n')
	}
	t.events++
}

// appendMicros appends ns as a microsecond value with three decimals.
func appendMicros(b []byte, ns int64) []byte {
	if ns < 0 {
		ns = 0
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	b = append(b, '.', byte('0'+frac/100), byte('0'+(frac/10)%10), byte('0'+frac%10))
	return b
}

func (t *Tracer) flushBuf() {
	if t.err == nil {
		_, t.err = t.w.Write(t.buf)
	}
	t.buf = t.buf[:0]
}

// FlashOp records one flash operation occupying die from start to end of
// simulated time and returns its event id. parent is the id of the event
// this one causally depends on (its predecessor in the request's dependency
// chain), or 0 for a chain head.
func (t *Tracer) FlashOp(op Op, die, channel int, start, end time.Duration, parent int64) int64 {
	t.sep()
	t.lastID++
	id := t.lastID
	b := t.buf
	b = append(b, `{"name":"`...)
	b = append(b, op.String()...)
	b = append(b, `","cat":"flash","ph":"X","pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(die), 10)
	b = append(b, `,"ts":`...)
	b = appendMicros(b, int64(start))
	b = append(b, `,"dur":`...)
	b = appendMicros(b, int64(end-start))
	b = append(b, `,"args":{"id":`...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, `,"parent":`...)
	b = strconv.AppendInt(b, parent, 10)
	b = append(b, `,"channel":`...)
	b = strconv.AppendInt(b, int64(channel), 10)
	b = append(b, `}}`...)
	t.buf = b
	t.flushBuf()
	return id
}

// RequestSpan records one request's lifetime (arrival to completion) as an
// async begin/end pair so Perfetto shows overlapping requests as a lane.
func (t *Tracer) RequestSpan(name string, id int64, start, end time.Duration) {
	t.asyncEvent('b', name, id, start)
	t.asyncEvent('e', name, id, end)
}

func (t *Tracer) asyncEvent(ph byte, name string, id int64, ts time.Duration) {
	t.sep()
	b := t.buf
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","cat":"request","ph":"`...)
	b = append(b, ph)
	b = append(b, `","id":`...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, `,"pid":1,"tid":0,"ts":`...)
	b = appendMicros(b, int64(ts))
	b = append(b, '}')
	t.buf = b
	t.flushBuf()
}

// ThreadName labels die's track "die D (ch C)" via an "M" metadata event.
func (t *Tracer) ThreadName(die, channel int) {
	t.sep()
	b := t.buf
	b = append(b, `{"name":"thread_name","ph":"M","pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(die), 10)
	b = append(b, `,"args":{"name":"die `...)
	b = strconv.AppendInt(b, int64(die), 10)
	b = append(b, ` (ch `...)
	b = strconv.AppendInt(b, int64(channel), 10)
	b = append(b, `)"}}`...)
	t.buf = b
	t.flushBuf()
}

// ProcessName labels a pid track via an "M" metadata event.
func (t *Tracer) ProcessName(pid int, name string) {
	t.sep()
	b := t.buf
	b = append(b, `{"name":"process_name","ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":0,"args":{"name":"`...)
	b = append(b, name...)
	b = append(b, `"}}`...)
	t.buf = b
	t.flushBuf()
}

// Close terminates the JSON document and flushes buffered output. It does
// not close the underlying writer.
func (t *Tracer) Close() error {
	if _, err := t.w.WriteString("\n]}\n"); err != nil && t.err == nil {
		t.err = err
	}
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}
