package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Parent is the ID of the span that caused it, 0 for a root.
type span struct {
	ID     int
	Parent int
	Name   string
	Start  time.Duration // offset from the recorder's origin
	End    time.Duration
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths pay one nil check per call. It is
// used from one goroutine at a time.
type spanRecorder struct {
	origin time.Time
	spans  []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(r.origin), End: -1})
	return id
}

// end closes the span begin returned.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.origin)
}

// add records a span whose interval was measured elsewhere.
func (r *spanRecorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return id
}

// writeChrome writes the spans as Chrome trace_event JSON (complete events;
// open in Perfetto or chrome://tracing). ID and parent travel in args.
func (r *spanRecorder) writeChrome(w io.Writer) error {
	type args struct {
		ID     int `json:"id"`
		Parent int `json:"parent"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`  // µs
		Dur  float64 `json:"dur"` // µs
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args args    `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		end := s.End
		if end < s.Start { // never closed: the run failed inside it
			end = s.Start
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(end-s.Start) / float64(time.Microsecond),
			Args: args{ID: s.ID, Parent: s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
}
