package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Counter names one exported counter: its row in CounterTable and its index
// in a Counters value.
type Counter uint8

const (
	CtrRequests Counter = iota
	CtrPageReads
	CtrPageWrites
	CtrLookups
	CtrHits
	CtrFlashReads
	CtrFlashPrograms
	CtrFlashErases
	CtrTransReads
	CtrTransWrites
	CtrPrefetched
	CtrTrimmedPages
	CtrFlushes
	CtrGCData
	CtrGCTrans
	CtrResponseNS
	CtrServiceNS
	CtrQueueNS
	CtrGCNS

	// NumCounters is the number of exported counters.
	NumCounters
)

// CounterDef is one row of the counter table: everything any exporter needs
// to know about one exported counter. Key is its name inside the "total" and
// "delta" objects of a -metrics-out line. Family is its Prometheus metric
// family and Label an optional fixed label pair (rows that share a family
// are adjacent and differ only in Label). Seconds marks a nanosecond counter
// that the Prometheus exposition reports in seconds.
type CounterDef struct {
	Key     string
	Family  string
	Label   string
	Help    string
	Seconds bool
}

// CounterTable is the one definition of the exported counters, in JSONL key
// order. (*ftl.Metrics).Counters binds each row to its source field; the
// JSONL encoding, its validator, the live plane and the Prometheus
// exposition are all loops over this table.
var CounterTable = [NumCounters]CounterDef{
	CtrRequests:      {Key: "requests", Family: "ftl_requests_total", Help: "Host requests served."},
	CtrPageReads:     {Key: "page_reads", Family: "ftl_page_reads_total", Help: "User data page reads."},
	CtrPageWrites:    {Key: "page_writes", Family: "ftl_page_writes_total", Help: "User data page writes."},
	CtrLookups:       {Key: "lookups", Family: "ftl_lookups_total", Help: "Translation cache lookups."},
	CtrHits:          {Key: "hits", Family: "ftl_hits_total", Help: "Translation cache hits."},
	CtrFlashReads:    {Key: "flash_reads", Family: "ftl_flash_reads_total", Help: "Flash page reads."},
	CtrFlashPrograms: {Key: "flash_programs", Family: "ftl_flash_programs_total", Help: "Flash page programs."},
	CtrFlashErases:   {Key: "flash_erases", Family: "ftl_flash_erases_total", Help: "Flash block erases."},
	CtrTransReads:    {Key: "trans_reads", Family: "ftl_trans_reads_total", Help: "Translation page reads."},
	CtrTransWrites:   {Key: "trans_writes", Family: "ftl_trans_writes_total", Help: "Translation page writes."},
	CtrPrefetched:    {Key: "prefetched", Family: "ftl_prefetched_total", Help: "Translation entries prefetched."},
	CtrTrimmedPages:  {Key: "trimmed_pages", Family: "ftl_trimmed_pages_total", Help: "Logical pages invalidated by TRIM."},
	CtrFlushes:       {Key: "flushes", Family: "ftl_flushes_total", Help: "Host flush barriers served."},
	CtrGCData:        {Key: "gc_data_collections", Family: "ftl_gc_collections_total", Label: `pool="data"`, Help: "Garbage collections by pool."},
	CtrGCTrans:       {Key: "gc_trans_collections", Family: "ftl_gc_collections_total", Label: `pool="trans"`, Help: "Garbage collections by pool."},
	CtrResponseNS:    {Key: "response_ns", Family: "ftl_response_seconds_total", Help: "Summed request response time (simulated).", Seconds: true},
	CtrServiceNS:     {Key: "service_ns", Family: "ftl_service_seconds_total", Help: "Summed request service time (simulated).", Seconds: true},
	CtrQueueNS:       {Key: "queue_ns", Family: "ftl_queue_seconds_total", Help: "Summed request queueing time (simulated).", Seconds: true},
	CtrGCNS:          {Key: "gc_ns", Family: "ftl_gc_seconds_total", Help: "Summed garbage-collection time (simulated).", Seconds: true},
}

// Counters is the exported subset of simulator counters carried by each
// epoch, both cumulative and as a delta since the previous epoch, indexed by
// Counter.
type Counters [NumCounters]int64

// Sub returns c - o, the delta between two cumulative counter sets.
func (c Counters) Sub(o Counters) Counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// Add returns c + o. A device folds its pre-reset totals into a base with it,
// so the totals its epochs carry stay monotonic across a metrics reset (what
// Prometheus counters require).
func (c Counters) Add(o Counters) Counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// MarshalJSON encodes the counters as one object keyed by the table's Key
// column, in table order.
func (c Counters) MarshalJSON() ([]byte, error) {
	// The longest key, its punctuation and a full-width int64 fit in 48 bytes.
	b := append(make([]byte, 0, 48*len(c)), '{')
	for i := range CounterTable {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, CounterTable[i].Key)
		b = append(b, ':')
		b = strconv.AppendInt(b, c[i], 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON decodes an object written by MarshalJSON. A key the table
// does not know is an error (the input comes from outside the program); a
// missing one reads 0.
func (c *Counters) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("counters: %w", err)
	}
	for i := range CounterTable {
		c[i] = m[CounterTable[i].Key]
		delete(m, CounterTable[i].Key)
	}
	for key := range m {
		return fmt.Errorf("unknown counter %q", key)
	}
	return nil
}

// PhaseSnapshot is one phase histogram condensed to its quantile summary.
type PhaseSnapshot struct {
	Phase  string `json:"phase"`
	Count  int64  `json:"count"`
	MeanNS int64  `json:"mean_ns"`
	MinNS  int64  `json:"min_ns"`
	MaxNS  int64  `json:"max_ns"`
	P50NS  int64  `json:"p50_ns"`
	P90NS  int64  `json:"p90_ns"`
	P99NS  int64  `json:"p99_ns"`
	P999NS int64  `json:"p999_ns"`
}

// Epoch is a device's counters at one point of its run: a line of the
// -metrics-out JSONL stream (MetricsWriter) and an epoch a live cell serves
// (live.Cell). ftl.Device builds it in one place; each consumer's Stream
// then numbers it and takes Requests, Total and Delta from its own origin.
type Epoch struct {
	// Shard is the shard of the device's live cell (0 without one); shard 0
	// writes no key, which keeps a one-shard stream's bytes.
	Shard     int             `json:"shard,omitempty"`
	Seq       int64           `json:"seq"`
	SimTimeNS int64           `json:"sim_time_ns"`
	Requests  int64           `json:"requests"`
	Delta     Counters        `json:"delta"`
	Total     Counters        `json:"total"`
	Phases    []PhaseSnapshot `json:"phases"`
	// MaxResponseNS is a watermark, not a counter: it neither folds nor
	// differences, and the JSONL line does not carry it.
	MaxResponseNS int64 `json:"-"`
}

// HitRatio returns the translation-cache hit ratio over Total.
func (e *Epoch) HitRatio() float64 {
	if e.Total[CtrLookups] == 0 {
		return 0
	}
	return float64(e.Total[CtrHits]) / float64(e.Total[CtrLookups])
}

// Stream is one consumer's state over a device's epochs: its cadence in
// served requests, the seq of its latest epoch, the device total when it was
// attached (its origin) and at its latest epoch (what the next delta is
// taken from). Device totals fold across metrics resets, so never go back.
type Stream struct {
	every        int64
	seq          int64
	origin, prev Counters
}

// NewStream returns a stream due every `every` served requests, attached
// when the device's total was total.
func NewStream(every int64, total Counters) Stream {
	return Stream{every: every, origin: total, prev: total}
}

// Due reports whether an epoch is due after the requests-th request served
// since the last metrics reset: a pure function of the served count, so an
// observed run decides as an unobserved one. The zero Stream is never due.
func (s *Stream) Due(requests int64) bool { return s.every > 0 && requests%s.every == 0 }

// Behind reports whether the stream has no epoch yet or requests were served
// since its latest one, given the device's current total.
func (s *Stream) Behind(total Counters) bool {
	return s.seq == 0 || total[CtrRequests] > s.prev[CtrRequests]
}

// Next returns the device's epoch e as this stream's next one, and advances
// the stream past it.
func (s *Stream) Next(e Epoch) Epoch {
	s.seq++
	e.Seq = s.seq
	e.Delta = e.Total.Sub(s.prev)
	s.prev = e.Total
	e.Total = e.Total.Sub(s.origin)
	e.Requests = e.Total[CtrRequests]
	return e
}

// MetricsWriter streams Epochs as JSON Lines.
type MetricsWriter struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewMetricsWriter wraps w in a buffered JSONL encoder.
func NewMetricsWriter(w io.Writer) *MetricsWriter {
	bw := bufio.NewWriterSize(w, 1<<15)
	return &MetricsWriter{w: bw, enc: json.NewEncoder(bw)}
}

// Write emits one epoch as a single JSON line.
func (m *MetricsWriter) Write(e *Epoch) error {
	if m.err != nil {
		return m.err
	}
	m.err = m.enc.Encode(e)
	return m.err
}

// Flush drains buffered output to the underlying writer.
func (m *MetricsWriter) Flush() error {
	if err := m.w.Flush(); err != nil && m.err == nil {
		m.err = err
	}
	return m.err
}
