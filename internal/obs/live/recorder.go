package live

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// Kind classifies one flight-recorder record: the five host ops, the GC and
// wear-leveling scheduler events, and free-form notes.
type Kind uint8

const (
	KindRead Kind = iota
	KindWrite
	KindWriteFUA
	KindTrim
	KindFlush
	KindGCData
	KindGCTrans
	KindWearLevel
	KindNote
	numKinds
)

var kindNames = [numKinds]string{
	"read", "write", "write_fua", "trim", "flush",
	"gc_data", "gc_trans", "wear_level", "note",
}

// String returns the dump-format token for the kind.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Record is one fixed-size flight-recorder entry. No pointers, so appending
// copies by value into the pre-allocated ring — zero per-op allocation. For
// host requests Off/N carry the byte offset and length and the three
// timestamps the admission path saw; for GC/wear-level events Off carries
// the block number and N the valid pages migrated (timestamps zero except
// CompleteNS = simulated completion).
type Record struct {
	Seq        int64 // assigned by the recorder, 1-based per shard
	SimNS      int64 // simulated clock when recorded
	Kind       Kind
	Off        int64
	N          int64
	ArrivalNS  int64
	AdmitNS    int64
	CompleteNS int64
}

// Recorder is a fixed-size ring of the last len(ring) records for one shard.
// Appends come from the shard's serving goroutine; dumps happen only on
// failure or SIGQUIT, so a short mutex (never held by a scrape) is enough —
// the HTTP endpoints never touch the recorder.
type Recorder struct {
	mu    sync.Mutex
	ring  []Record
	total int64
}

// NewRecorder returns a recorder retaining the last n records (n ≥ 1).
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{ring: make([]Record, n)}
}

// Append records rec, overwriting the oldest entry once the ring is full.
// The sequence number is assigned here. Allocation-free.
func (r *Recorder) Append(rec Record) {
	r.mu.Lock()
	r.total++
	rec.Seq = r.total
	r.ring[(r.total-1)%int64(len(r.ring))] = rec
	r.mu.Unlock()
}

// Total returns how many records were ever appended.
func (r *Recorder) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Tail appends the retained records, oldest first, to dst and returns it.
func (r *Recorder) Tail(dst []Record) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	if n > int64(len(r.ring)) {
		n = int64(len(r.ring))
	}
	for i := r.total - n; i < r.total; i++ {
		dst = append(dst, r.ring[i%int64(len(r.ring))])
	}
	return dst
}

// DumpRecorders writes a readable post-mortem report of every shard's
// flight recorder: the last N admitted requests and scheduler events per
// shard, oldest first. The format is stable enough to validate
// (obstest.ValidateRecorderDump).
func (p *Plane) DumpRecorders(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cells := p.Cells()
	info := p.Info()
	fmt.Fprintf(bw, "flight recorder: shards=%d ring=%d scheme=%q workload=%q\n",
		len(cells), p.records, info.Scheme, info.Workload)
	var tail []Record
	for _, c := range cells {
		rec := c.Recorder()
		tail = rec.Tail(tail[:0])
		fmt.Fprintf(bw, "-- shard %d: total=%d retained=%d --\n",
			c.Shard(), rec.Total(), len(tail))
		for i := range tail {
			r := &tail[i]
			fmt.Fprintf(bw,
				"seq=%d sim_ns=%d kind=%s off=%d n=%d arrival_ns=%d admit_ns=%d complete_ns=%d\n",
				r.Seq, r.SimNS, r.Kind, r.Off, r.N, r.ArrivalNS, r.AdmitNS, r.CompleteNS)
		}
	}
	fmt.Fprintf(bw, "end flight recorder\n")
	return bw.Flush()
}
