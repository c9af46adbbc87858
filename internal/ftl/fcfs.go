package ftl

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// FCFS is the request loop the standalone comparison devices (blockftl,
// hybrid, fast) share: one request at a time on a single clock, split into
// page accesses. A device's constructor binds one to the device's own clock,
// counters and page operations; Name prefixes the error strings.
type FCFS struct {
	Name    string
	Config  *Config
	Clock   *time.Duration
	Metrics *Metrics

	ReadPage, WritePage func(lpn int64) (time.Duration, error)
	// Check is the device's consistency check, run after every request in
	// the ftlsan build.
	Check func() error
}

// Serve executes one request first-come first-served and returns its
// response time.
func (f *FCFS) Serve(req trace.Request) (time.Duration, error) {
	if err := req.Validate(); err != nil {
		return 0, err
	}
	if req.End() > f.Config.LogicalBytes {
		return 0, fmt.Errorf("%s: request beyond capacity", f.Name)
	}
	m := f.Metrics
	arrival := time.Duration(req.Arrival)
	start := *f.Clock
	if arrival > start {
		start = arrival
	}
	var acc time.Duration
	switch req.Op {
	case trace.OpRead, trace.OpWrite, trace.OpWriteFUA:
		first, last := req.Pages(f.Config.PageSize)
		for lpn := first; lpn <= last; lpn++ {
			var lat time.Duration
			var err error
			if req.IsWrite() {
				m.PageWrites++
				lat, err = f.WritePage(lpn)
			} else {
				m.PageReads++
				lat, err = f.ReadPage(lpn)
			}
			if err != nil {
				return 0, err
			}
			acc += lat
		}
	case trace.OpTrim, trace.OpFlush:
		// TRIM is advisory and these pre-TRIM designs ignore it (the data
		// stays until overwritten, which the spec permits); every write is
		// already synchronous, so a flush barrier has nothing to drain.
	default:
		return 0, fmt.Errorf("%s: unhandled request op %v", f.Name, req.Op)
	}
	*f.Clock = start + acc
	resp := *f.Clock - arrival
	m.Requests++
	m.ServiceTime += acc
	m.ResponseTime += resp
	m.QueueTime += start - arrival
	m.ObserveResponse(resp)
	if SanitizerEnabled {
		if err := SanitizeCheck(f.Name, f.Check); err != nil {
			return 0, err
		}
	}
	return resp, nil
}
