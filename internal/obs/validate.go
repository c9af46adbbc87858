package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// ValidateMetricsJSONL checks a -metrics-out stream against the snapshot
// schema: every line parses as a SnapshotRecord, seq starts at 1 and
// increments by one, simulated time and every cumulative counter of the
// table are non-decreasing, from the second line on delta is the difference
// of consecutive totals, every phase name appears exactly once per line, and
// each phase's quantiles are ordered (min ≤ p50 ≤ p90 ≤ p99 ≤ p999 ≤ max).
// It returns the number of valid records.
func ValidateMetricsJSONL(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var (
		n         int
		prevSeq   int64
		prevTime  int64
		prevTotal Counters
	)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec SnapshotRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return n, fmt.Errorf("metrics line %d: %v", n+1, err)
		}
		if rec.Seq != prevSeq+1 {
			return n, fmt.Errorf("metrics line %d: seq %d, want %d", n+1, rec.Seq, prevSeq+1)
		}
		if rec.SimTimeNS < prevTime {
			return n, fmt.Errorf("metrics line %d: sim_time_ns went backwards (%d < %d)", n+1, rec.SimTimeNS, prevTime)
		}
		if rec.Total[CtrRequests] != rec.Requests {
			return n, fmt.Errorf("metrics line %d: total.requests %d != requests %d", n+1, rec.Total[CtrRequests], rec.Requests)
		}
		for i := range CounterTable {
			key, total, prev := CounterTable[i].Key, rec.Total[i], prevTotal[i]
			if total < prev {
				return n, fmt.Errorf("metrics line %d: total.%s went backwards (%d < %d)", n+1, key, total, prev)
			}
			if n > 0 && rec.Delta[i] != total-prev {
				return n, fmt.Errorf("metrics line %d: delta.%s %d != total %d - previous total %d", n+1, key, rec.Delta[i], total, prev)
			}
		}
		seen := make(map[string]bool, NumPhases)
		for _, ph := range rec.Phases {
			if _, ok := PhaseByName(ph.Phase); !ok {
				return n, fmt.Errorf("metrics line %d: unknown phase %q", n+1, ph.Phase)
			}
			if seen[ph.Phase] {
				return n, fmt.Errorf("metrics line %d: duplicate phase %q", n+1, ph.Phase)
			}
			seen[ph.Phase] = true
			if ph.Count < 0 {
				return n, fmt.Errorf("metrics line %d: phase %q negative count", n+1, ph.Phase)
			}
			if ph.Count > 0 {
				q := []int64{ph.MinNS, ph.P50NS, ph.P90NS, ph.P99NS, ph.P999NS, ph.MaxNS}
				for i := 1; i < len(q); i++ {
					if q[i] < q[i-1] {
						return n, fmt.Errorf("metrics line %d: phase %q quantiles out of order: %v", n+1, ph.Phase, q)
					}
				}
			}
		}
		if len(seen) != int(NumPhases) {
			return n, fmt.Errorf("metrics line %d: %d phases present, want %d", n+1, len(seen), NumPhases)
		}
		prevSeq, prevTime, prevTotal = rec.Seq, rec.SimTimeNS, rec.Total
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	if n == 0 {
		return 0, fmt.Errorf("metrics stream: no records")
	}
	return n, nil
}

// traceEvent is the decoded shape of one Chrome trace_event record.
type traceEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Cat  string          `json:"cat"`
	TS   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	PID  int             `json:"pid"`
	TID  int             `json:"tid"`
	ID   json.RawMessage `json:"id"`
}

// traceDoc is the top-level Chrome trace JSON object.
type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// ValidateTrace checks a -trace-out file against the Chrome trace_event
// format as the Tracer emits it: a JSON object with a non-empty traceEvents
// array whose members have a name, a known phase type ("X", "b", "e", or
// "M"), non-negative timestamps, non-negative durations on "X" events, and
// balanced "b"/"e" pairs per (cat, id). It returns the event count.
func ValidateTrace(r io.Reader) (int, error) {
	var doc traceDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("trace: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("trace: no events")
	}
	open := make(map[string]int)
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			return 0, fmt.Errorf("trace event %d: empty name", i)
		}
		switch ev.Ph {
		case "X":
			if ev.TS < 0 {
				return 0, fmt.Errorf("trace event %d: negative ts %v", i, ev.TS)
			}
			if ev.Dur < 0 {
				return 0, fmt.Errorf("trace event %d: negative dur %v", i, ev.Dur)
			}
		case "b":
			if ev.TS < 0 {
				return 0, fmt.Errorf("trace event %d: negative ts %v", i, ev.TS)
			}
			open[ev.Cat+"/"+string(ev.ID)]++
		case "e":
			key := ev.Cat + "/" + string(ev.ID)
			if open[key] == 0 {
				return 0, fmt.Errorf("trace event %d: end without begin for %s", i, key)
			}
			open[key]--
		case "M":
			// Metadata events carry no timing.
		default:
			return 0, fmt.Errorf("trace event %d: unknown phase type %q", i, ev.Ph)
		}
	}
	for key, c := range open {
		if c != 0 {
			return 0, fmt.Errorf("trace: %d unmatched begin events for %s", c, key)
		}
	}
	return len(doc.TraceEvents), nil
}
