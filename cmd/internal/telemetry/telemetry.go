// Package telemetry is the cmd-side runtime of the live telemetry plane
// (internal/obs/live): the opt-in HTTP scrape server, the wall-clock sampler
// that computes requests/sec, ETA and peak RSS, the periodic stderr progress
// line for headless runs, and the SIGQUIT flight-recorder dump.
//
// It extends cmd/internal/memwatch's pattern: wall time
// exists only here (and in memwatch), under cmd/, on goroutines that observe
// the simulation without ever advancing it. The simulator packages publish
// into the plane at simulated cadences and contain no wall-clock calls; this
// package periodically reads the plane's atomics and writes the Progress
// view back in. Nothing here perturbs simulated results.
package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/cmd/internal/memwatch"
	"repro/internal/obs/live"
)

// DefaultInterval is the sampler/progress period when Options.Interval is 0.
const DefaultInterval = 2 * time.Second

// Options configures Start.
type Options struct {
	// Addr, when non-empty, serves the plane over HTTP (live.NewMux:
	// /metrics, /snapshot, /quit, /debug/vars, /debug/pprof).
	Addr string
	// Plane is the telemetry plane the simulation publishes into. Required.
	Plane *live.Plane
	// Progress, when non-nil, receives a one-line progress report every
	// Interval (typically os.Stderr for headless runs).
	Progress io.Writer
	// Interval is the sampler period (DefaultInterval when 0).
	Interval time.Duration
	// Linger keeps the HTTP server alive this long after Finish is called,
	// or until POST /quit — so a scraper can read the final epochs of a
	// short run. 0 shuts down immediately.
	Linger time.Duration
	// Watcher, when non-nil, contributes its peak-RSS high-water mark to
	// the progress view.
	Watcher *memwatch.Watcher
}

// T is a running telemetry runtime. Create with Start, end with Finish.
type T struct {
	o        Options
	ln       net.Listener
	quitCh   chan struct{}
	quitOnce sync.Once
	stop     chan struct{}
	done     sync.WaitGroup
	sigc     chan os.Signal

	prevReqs int64
	prevWall time.Time
}

var expvarOnce sync.Once

// Start launches the telemetry runtime: the HTTP server when o.Addr is set,
// the sampler goroutine (progress view + optional stderr line), and the
// SIGQUIT handler that dumps every shard's flight recorder to stderr (the
// process continues afterwards). Returns an error only when the listen
// address is unusable.
func Start(o Options) (*T, error) {
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	t := &T{o: o, quitCh: make(chan struct{}), stop: make(chan struct{})}

	if o.Addr != "" {
		ln, err := net.Listen("tcp", o.Addr)
		if err != nil {
			return nil, fmt.Errorf("telemetry: listen %s: %w", o.Addr, err)
		}
		t.ln = ln
		expvarOnce.Do(func() {
			expvar.Publish("ftl_live", expvar.Func(func() any { return live.SnapshotDoc(o.Plane) }))
		})
		srv := &http.Server{Handler: live.NewMux(o.Plane, t.quit)}
		t.done.Add(1)
		go func() {
			defer t.done.Done()
			srv.Serve(ln) // returns on ln.Close()
		}()
	}

	// SIGQUIT: dump the flight recorders and keep running. Installing the
	// handler replaces Go's default stack dump while telemetry is armed.
	t.sigc = make(chan os.Signal, 1)
	signal.Notify(t.sigc, syscall.SIGQUIT)
	t.done.Add(1)
	go func() {
		defer t.done.Done()
		for {
			select {
			case <-t.sigc:
				fmt.Fprintln(os.Stderr, "telemetry: SIGQUIT — dumping flight recorders")
				o.Plane.DumpRecorders(os.Stderr)
			case <-t.stop:
				return
			}
		}
	}()

	// Sampler: compute the wall-clock progress view and publish it into the
	// plane; optionally narrate to o.Progress.
	t.prevWall = time.Now()
	t.done.Add(1)
	go func() {
		defer t.done.Done()
		tick := time.NewTicker(o.Interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t.sample()
			case <-t.stop:
				return
			}
		}
	}()
	return t, nil
}

// sample publishes one Progress epoch and optionally prints it.
func (t *T) sample() {
	now := time.Now()
	reqs := t.o.Plane.Requests()
	dt := now.Sub(t.prevWall).Seconds()
	var rate float64
	if dt > 0 {
		rate = float64(reqs-t.prevReqs) / dt
	}
	t.prevReqs, t.prevWall = reqs, now

	info := t.o.Plane.Info()
	pr := live.Progress{
		WallUnixNS: now.UnixNano(),
		Requests:   reqs,
		Total:      info.TotalRequests,
		ReqPerSec:  rate,
	}
	if info.TotalRequests > 0 && rate > 0 && reqs < info.TotalRequests {
		pr.ETASeconds = float64(info.TotalRequests-reqs) / rate
	}
	if t.o.Watcher != nil {
		pr.PeakRSSBytes = int64(t.o.Watcher.Peak())
	}
	t.o.Plane.SetProgress(pr)

	if w := t.o.Progress; w != nil {
		line := fmt.Sprintf("telemetry: %d requests", reqs)
		if pr.Total > 0 {
			line = fmt.Sprintf("telemetry: %d/%d requests (%.1f%%)",
				reqs, pr.Total, 100*float64(reqs)/float64(pr.Total))
		}
		line += fmt.Sprintf("  %.0f req/s", rate)
		if pr.ETASeconds > 0 {
			line += fmt.Sprintf("  eta %s", (time.Duration(pr.ETASeconds * float64(time.Second))).Round(time.Second))
		}
		if info.Shards > 1 {
			line += fmt.Sprintf("  shards %d", info.Shards)
		}
		if pr.PeakRSSBytes > 0 {
			line += fmt.Sprintf("  rss %.1f MB", float64(pr.PeakRSSBytes)/(1<<20))
		}
		fmt.Fprintln(w, line)
	}
}

// quit releases a Linger wait early (POST /quit).
func (t *T) quit() { t.quitOnce.Do(func() { close(t.quitCh) }) }

// Addr returns the HTTP server's bound address ("" when no server runs) —
// useful when Options.Addr picked an ephemeral port.
func (t *T) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// DumpOnError writes the flight-recorder report to w — call when a run
// fails so the last admitted requests and scheduler events are preserved.
func (t *T) DumpOnError(w io.Writer) { t.o.Plane.DumpRecorders(w) }

// Finish publishes a final progress sample, honors the Linger window (ended
// early by POST /quit), then shuts the server and goroutines down. Call
// exactly once, after the run completes.
func (t *T) Finish() {
	t.sample()
	if t.ln != nil && t.o.Linger > 0 {
		select {
		case <-t.quitCh:
		case <-time.After(t.o.Linger):
		}
	}
	signal.Stop(t.sigc)
	close(t.stop)
	if t.ln != nil {
		t.ln.Close()
	}
	t.done.Wait()
}
