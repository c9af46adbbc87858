package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs/live"
	"repro/internal/sim"
	"repro/internal/trace"
)

// traceSource is what the benchmark wraps: a trace.Stream, or a stand-in in
// tests. sim.Run reads MaxEnd (preconditioning footprint) and Records
// (telemetry progress) through optional interfaces, so a wrapper has to
// forward both or the run it times is not the run a user gets.
type traceSource interface {
	trace.Iterator
	MaxEnd() int64
	Records() int64
}

// phaseIter splits one sim.Run into set-up and replay from outside the
// simulator: it stamps the clocks the first time record `at` (the warm-up
// length) is about to be handed out. Everything before the stamp — open,
// NewDevice, Format, precondition, warm-up — is set-up; everything after it,
// up to sim.Run returning, is replay. Only the goroutine that calls sim.Run
// pulls from the iterator (the serial loop, or the sharded host's router),
// so the fields need no lock.
type phaseIter struct {
	src    traceSource
	at     int64
	handed int64
	fired  int

	wall time.Time     // wall clock at the stamp
	cpu  time.Duration // process CPU time at the stamp
	// onStamp, when set, runs right after the clocks are read (the
	// instrumented repeat snapshots allocation counters there).
	onStamp func()
	// spans, when non-nil, records one span per Next call under parent.
	spans  *spanRecorder
	parent int
	// yard, when non-nil, runs one slice at every Next call (see
	// yardstick.go). yardTime is the slices' total, yardSetup the part of it
	// spent before the stamp.
	yard       *yardstick
	yardTime   time.Duration
	yardSetup  time.Duration
	yardSlices int
}

func (p *phaseIter) Next(batch []trace.Request) (int, error) {
	if p.handed == p.at {
		if p.fired == 0 {
			p.wall, p.cpu = time.Now(), processCPU()
			p.yardSetup = p.yardTime
			if p.onStamp != nil {
				p.onStamp()
			}
		}
		p.fired++
	}
	if p.yard != nil {
		p.yardTime += p.yard.slice()
		p.yardSlices++
	}
	id := p.spans.begin("trace.Next", p.parent)
	n, err := p.src.Next(batch)
	p.spans.end(id)
	p.handed += int64(n)
	return n, err
}

func (p *phaseIter) MaxEnd() int64  { return p.src.MaxEnd() }
func (p *phaseIter) Records() int64 { return p.src.Records() }

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timing is the host-time outcome of one repeat.
type timing struct {
	Setup     time.Duration // open → stamp, yardstick slices taken out
	Replay    time.Duration // stamp → sim.Run returned (consistency check included), slices taken out
	ReplayCPU time.Duration // process CPU over the replay window, slices taken out
	// Speed is how fast the machine ran the yardstick during this repeat,
	// relative to the reference machine; 1 when no yardstick ran.
	Speed float64
}

// scaled is a host time of this repeat at the reference machine's speed.
func (t timing) scaled(d time.Duration) float64 { return d.Seconds() * t.Speed }

// replayHooks are the optional attachments of one repeat; the zero value is
// the plain timed repeat the end-to-end metrics come from.
type replayHooks struct {
	plane   *live.Plane   // Options.Telemetry
	spans   *spanRecorder // record repeat / setup / replay / trace.Next spans
	parent  int
	onStamp func()
	yard    *yardstick // sample the machine's speed through the repeat
}

// replayOnce runs the workload once on a fresh device: OpenBinary → sim.Run.
func replayOnce(s spec, path string, h replayHooks) (*sim.Result, timing, error) {
	start := time.Now()
	st, err := trace.OpenBinary(path)
	if err != nil {
		return nil, timing{}, err
	}
	defer st.Close()
	return stampedRun(start, st, warmupRequests, h, func(it trace.Iterator) sim.Options { return s.options(it, h.plane) })
}

// stampedRun times one sim.Run over src, split at record `at`. start is when
// the repeat began (before the source was opened); opts builds the run's
// options around the stamping iterator.
func stampedRun(start time.Time, src traceSource, at int64, h replayHooks, opts func(trace.Iterator) sim.Options) (*sim.Result, timing, error) {
	run := h.spans.add("repeat", h.parent, start, start) // closed below
	it := &phaseIter{src: src, at: at, onStamp: h.onStamp, spans: h.spans, parent: run, yard: h.yard}
	res, err := sim.Run(opts(it))
	end, endCPU := time.Now(), processCPU()
	h.spans.end(run)
	if err != nil {
		return nil, timing{}, err
	}
	if it.fired != 1 {
		return nil, timing{}, fmt.Errorf("phase stamp fired %d times at record %d (handed %d): warm-up did not end on a batch boundary", it.fired, it.at, it.handed)
	}
	h.spans.add("setup", run, start, it.wall)
	h.spans.add("replay", run, it.wall, end)
	inReplay := it.yardTime - it.yardSetup
	t := timing{Setup: it.wall.Sub(start) - it.yardSetup, Replay: end.Sub(it.wall) - inReplay, ReplayCPU: endCPU - it.cpu - inReplay, Speed: 1}
	if it.yardSlices > 0 {
		t.Speed = float64(it.yardSlices) * float64(yardstickSliceRef) / float64(it.yardTime)
	}
	return res, t, nil
}

// sameWork reports how two repeats' simulated outcomes differ ("" if they do
// not): every repeat replays the same file on the same fresh device, so any
// difference is a determinism bug, not noise.
func sameWork(a, b *sim.Result) string {
	switch {
	case a.Digest != b.Digest:
		return fmt.Sprintf("Digest %016x != %016x", a.Digest, b.Digest)
	case a.M != b.M:
		return "Result.M counters differ"
	case a.TraceStats != b.TraceStats:
		return "TraceStats differ"
	case len(a.Shards) != len(b.Shards):
		return "shard counts differ"
	}
	for i := range a.Shards {
		if a.Shards[i].EventHash != b.Shards[i].EventHash {
			return fmt.Sprintf("shard %d EventHash %016x != %016x", i, a.Shards[i].EventHash, b.Shards[i].EventHash)
		}
		if a.Shards[i].M != b.Shards[i].M {
			return fmt.Sprintf("shard %d metrics differ", i)
		}
	}
	return ""
}

// instrumented is what the untimed, instrumented repeats add to a Result.
type instrumented struct {
	res        *sim.Result
	peakRSS    int64   // bytes, smallest high-water RssAnon of the instrumented repeats
	rssEach    []int64 // each repeat's high-water
	rssSamples int
	allocs     uint64 // heap objects allocated during the first one's replay window
	allocBytes uint64
}

// rssRepeats is how many instrumented repeats a run makes. A repeat's
// resident high-water depends on how far the allocator got ahead of the
// collector's background worker, which the neighbours on the machine decide
// (the same replay read 15.2 to 17.2 MiB in ten fresh processes); overshoot
// only ever adds, so the smallest of a few is the steady figure.
const rssRepeats = 3

// instrumentedRepeats runs the workload rssRepeats times with the memory
// sampler on, and the first time with the allocation counters too. Their
// timings are discarded: ReadMemStats stops the world and the sampler shares
// the CPUs.
func instrumentedRepeats(s spec, path string) (instrumented, error) {
	var out instrumented
	for n := 0; n < rssRepeats; n++ {
		var atStamp, atEnd runtime.MemStats
		hooks := replayHooks{}
		if n == 0 {
			hooks.onStamp = func() { runtime.ReadMemStats(&atStamp) }
		}
		// Hand back whatever trace generation or the last repeat left
		// behind, so the high-water mark is this replay's alone.
		debug.FreeOSMemory()
		rss, err := startRSSSampler()
		if err != nil {
			return out, err
		}
		res, _, err := replayOnce(s, path, hooks)
		peak, samples := rss.stop()
		if err != nil {
			return out, err
		}
		if n == 0 {
			runtime.ReadMemStats(&atEnd)
			out.res = res
			out.allocs = atEnd.Mallocs - atStamp.Mallocs
			out.allocBytes = atEnd.TotalAlloc - atStamp.TotalAlloc
			out.peakRSS = peak
		} else if diff := sameWork(out.res, res); diff != "" {
			return out, fmt.Errorf("instrumented repeat %d disagrees with the first: %s", n+1, diff)
		}
		out.peakRSS = min(out.peakRSS, peak)
		out.rssEach = append(out.rssEach, peak)
		out.rssSamples += samples
	}
	return out, nil
}

// rssSampler polls the kernel's view of the process's anonymous resident
// memory. It reads through one open file into one buffer, so it adds no
// garbage to the run it watches.
type rssSampler struct {
	f    *os.File
	quit chan struct{}
	done sync.WaitGroup
	peak int64
	n    int
}

const rssSampleEvery = 2 * time.Millisecond

func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return nil, fmt.Errorf("peak_rss_mb needs /proc: %w", err)
	}
	r := &rssSampler{f: f, quit: make(chan struct{})}
	if err := r.sample(make([]byte, 8<<10)); err != nil {
		f.Close()
		return nil, err
	}
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		buf := make([]byte, 8<<10)
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				_ = r.sample(buf) // a failed poll only thins the samples; the first one was checked
			case <-r.quit:
				_ = r.sample(buf)
				return
			}
		}
	}()
	return r, nil
}

func (r *rssSampler) sample(buf []byte) error {
	n, err := r.f.ReadAt(buf, 0)
	if n == 0 && err != nil {
		return err
	}
	kb, ok := statusField(buf[:n], "RssAnon:")
	if !ok {
		return errors.New("/proc/self/status has no RssAnon line")
	}
	if b := kb << 10; b > r.peak {
		r.peak = b
	}
	r.n++
	return nil
}

// stop ends sampling and returns the high-water mark in bytes and the number
// of samples taken; it returns after the sampler goroutine has exited.
func (r *rssSampler) stop() (int64, int) {
	close(r.quit)
	r.done.Wait()
	r.f.Close()
	return r.peak, r.n
}

// statusField parses "Key:   123 kB" out of a /proc status image.
func statusField(status []byte, key string) (int64, bool) {
	i := bytes.Index(status, []byte(key))
	if i < 0 {
		return 0, false
	}
	var v int64
	seen := false
	for _, c := range status[i+len(key):] {
		switch {
		case c >= '0' && c <= '9':
			v, seen = v*10+int64(c-'0'), true
		case seen || c == '\n':
			return v, seen
		}
	}
	return v, seen
}

// timedRepeats runs repeats with nothing attached but the yardstick until the
// deadline (at least minRepeats of them), checking each against ref; with a
// nil ref the first repeat that succeeds becomes the reference. It returns the
// timings of the repeats that agreed with the reference, the reference, and
// the number of repeats that failed or disagreed.
func timedRepeats(s spec, path string, ref *sim.Result, deadline time.Time) (ts []timing, _ *sim.Result, bad int, err error) {
	yard := newYardstick()
	var last time.Duration
	for n := 0; n < minRepeats || time.Now().Add(last).Before(deadline); n++ {
		runtime.GC()
		begin := time.Now()
		res, t, rerr := replayOnce(s, path, replayHooks{yard: yard})
		last = time.Since(begin)
		switch {
		case rerr != nil:
			bad++
			err = errors.Join(err, fmt.Errorf("repeat %d: %w", n+1, rerr))
		case ref != nil && sameWork(ref, res) != "":
			bad++
			err = errors.Join(err, fmt.Errorf("repeat %d disagrees with the reference: %s", n+1, sameWork(ref, res)))
		default:
			if ref == nil {
				ref = res
			}
			ts = append(ts, t)
			fmt.Printf("  repeat %2d  setup %.4f s  replay %.4f s  cpu %.4f s  machine speed %.3f\n", n+1, t.Setup.Seconds(), t.Replay.Seconds(), t.ReplayCPU.Seconds(), t.Speed)
		}
	}
	return ts, ref, bad, err
}

// fastestReplay returns the repeat with the shortest replay window.
func fastestReplay(ts []timing) timing {
	best := ts[0]
	for _, t := range ts[1:] {
		if t.Replay < best.Replay {
			best = t
		}
	}
	return best
}

// medianOf is the median of f over the repeats.
func medianOf(ts []timing, f func(timing) float64) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = f(t)
	}
	_, med, _ := quartiles(xs)
	return med
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method (what Python's statistics.quantiles(n=4) computes), so
// the spread the benchmark prints is the spread the referee computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		pos := p * float64(n+1)
		j := int(pos)
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
