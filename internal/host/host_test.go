package host

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// newTPFTLDevice builds and formats one TPFTL-backed device.
func newTPFTLDevice(t *testing.T, cfg ftl.Config) *ftl.Device {
	t.Helper()
	cache := cfg.CacheBytes
	if cache == 0 {
		cache = ftl.DefaultCacheBytes(cfg.LogicalBytes)
	}
	dev, err := ftl.NewDevice(cfg, core.New(core.DefaultConfig(cache)))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Format(); err != nil {
		t.Fatal(err)
	}
	return dev
}

// newTestHost shards a base config and builds a host over fresh formatted,
// preconditioned devices. Preconditioning is per shard and seeded by the
// shard index, so two hosts built from the same base start identical.
func newTestHost(t *testing.T, base ftl.Config, shards int, opt Options) *Host {
	t.Helper()
	lay, cfgs, err := ShardConfigs(base, shards)
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]*ftl.Device, shards)
	for s := range devs {
		devs[s] = newTPFTLDevice(t, cfgs[s])
		pages := cfgs[s].LogicalPages()
		if err := devs[s].PreconditionRange(int(pages), pages, int64(s)+1); err != nil {
			t.Fatal(err)
		}
		devs[s].ResetMetrics()
	}
	h, err := New(lay, devs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// mixedTrace generates a deterministic stream of reads, writes, FUA writes,
// trims and flushes with non-decreasing arrivals over the given space.
func mixedTrace(seed int64, n int, space, pageBytes int64, arrivalStep int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]trace.Request, 0, n)
	var arrival int64
	for i := 0; i < n; i++ {
		if arrivalStep > 0 {
			arrival += rng.Int63n(arrivalStep)
		}
		roll := rng.Intn(100)
		if roll < 4 {
			reqs = append(reqs, trace.Request{Arrival: arrival, Op: trace.OpFlush})
			continue
		}
		op := trace.OpRead
		switch {
		case roll < 12:
			op = trace.OpTrim
		case roll < 20:
			op = trace.OpWriteFUA
		case roll < 55:
			op = trace.OpWrite
		}
		pages := space / pageBytes
		first := rng.Int63n(pages)
		span := 1 + rng.Int63n(min(16, pages-first))
		reqs = append(reqs, trace.Request{
			Arrival: arrival,
			Offset:  first * pageBytes,
			Length:  span * pageBytes,
			Op:      op,
		})
	}
	return reqs
}

// serveAll serves every request on dev with a plain Device.Serve loop: the
// scalar-clock device at queue depth 1, no admission queue at all.
func serveAll(t *testing.T, dev *ftl.Device, reqs []trace.Request) {
	t.Helper()
	for i, r := range reqs {
		if _, err := dev.Serve(r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// admitAll serves every request on dev through a bare ssd.Admitter and
// returns the device's metrics with the queue stats folded in.
func admitAll(t *testing.T, dev *ftl.Device, qd int, reqs []trace.Request) ftl.Metrics {
	t.Helper()
	a := ssd.NewAdmitter(qd)
	for i, r := range reqs {
		if _, err := a.Admit(dev, r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	m := dev.Metrics()
	m.MaxQueueDepth = a.Stats().MaxDepth
	m.QueueDepthSum = a.Stats().DepthSum
	return m
}

// TestReplaySerialEquivalence pins the 1-shard host to references that do
// not go through it, bit-for-bit: depth 1 against a plain Device.Serve loop,
// deeper queues and open loop against a bare ssd.Admitter — same metrics,
// same event hash, whatever the batch size and the (unused) client count.
func TestReplaySerialEquivalence(t *testing.T) {
	const space = 16 << 20
	base := ftl.DefaultConfig(space)
	reqs := mixedTrace(1, 4000, space, int64(base.PageSize), 3000)

	cases := []struct {
		name      string
		opt       Options
		clients   int
		reference func(t *testing.T, dev *ftl.Device) ftl.Metrics
	}{
		{"qd1", Options{}, 3, func(t *testing.T, dev *ftl.Device) ftl.Metrics {
			serveAll(t, dev, reqs)
			return dev.Metrics()
		}},
		{"qd4", Options{QueueDepth: 4}, 2, func(t *testing.T, dev *ftl.Device) ftl.Metrics {
			return admitAll(t, dev, 4, reqs)
		}},
		{"openloop", Options{OpenLoop: true}, 4, func(t *testing.T, dev *ftl.Device) ftl.Metrics {
			return admitAll(t, dev, 0, reqs)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newTestHost(t, base, 1, c.opt)
			out, err := h.Replay(reqs, ReplayOptions{Clients: c.clients, Batch: 7})
			if err != nil {
				t.Fatal(err)
			}

			refHost := newTestHost(t, base, 1, c.opt) // identical setup, reference driver
			dev := refHost.Device(0)
			want := c.reference(t, dev)

			if got := out.Shards[0].M; !reflect.DeepEqual(got, want) {
				t.Errorf("shard metrics diverge from the reference driver:\n got  %+v\n want %+v", got, want)
			}
			if got, want := out.Shards[0].EventHash, dev.Scheduler().EventHash(); got != want {
				t.Errorf("event hash %#x, reference %#x", got, want)
			}
			if out.Digest != Digest([]uint64{dev.Scheduler().EventHash()}) {
				t.Errorf("merged digest does not fold the reference hash")
			}
			if out.Requests != int64(len(reqs)) || out.Fragments != int64(len(reqs)) {
				t.Errorf("1-shard routing: %d requests, %d fragments", out.Requests, out.Fragments)
			}
		})
	}
}

// TestReplayClientCountInvariance pins the determinism argument: the
// per-shard service order is fixed by the partition, so the client and
// batch topology must not change any simulated result.
func TestReplayClientCountInvariance(t *testing.T) {
	const space = 32 << 20
	base := ftl.DefaultConfig(space)
	reqs := mixedTrace(2, 3000, space, int64(base.PageSize), 0)

	run := func(clients, batch int) *Outcome {
		h := newTestHost(t, base, 4, Options{QueueDepth: 8})
		out, err := h.Replay(reqs, ReplayOptions{Clients: clients, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(4, 64)
	for _, c := range []struct{ clients, batch int }{{9, 64}, {16, 64}, {5, 17}, {4, 1}} {
		got := run(c.clients, c.batch)
		if got.Digest != ref.Digest {
			t.Fatalf("clients=%d batch=%d: digest %#x, reference %#x", c.clients, c.batch, got.Digest, ref.Digest)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("clients=%d batch=%d: outcome diverges from reference", c.clients, c.batch)
		}
	}
}

// TestShardSaturationDigestStable is the sharded-host gate: a race-enabled
// 4-shard saturation run (arrival 0, deep queues, concurrent clients) must
// produce the same merged digest run over run.
func TestShardSaturationDigestStable(t *testing.T) {
	const space = 32 << 20
	base := ftl.DefaultConfig(space)
	reqs := mixedTrace(3, 6000, space, int64(base.PageSize), 0)

	run := func() *Outcome {
		h := newTestHost(t, base, 4, Options{QueueDepth: 8})
		out, err := h.Replay(reqs, ReplayOptions{Clients: 8})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Digest != b.Digest {
		t.Fatalf("merged digest unstable across identical runs: %#x vs %#x", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("outcome unstable across identical runs")
	}
	if a.Digest == 0 {
		t.Fatal("suspicious zero digest")
	}
	for _, sr := range a.Shards {
		if sr.Admitted == 0 {
			t.Fatalf("shard %d served nothing — sharding is not spreading load", sr.Shard)
		}
	}
	if a.M.Requests != a.Fragments {
		t.Fatalf("merged metrics count %d requests, %d fragments routed", a.M.Requests, a.Fragments)
	}
}

// TestReplayZeroRequests pins the empty-replay edge: well-defined zero
// stats, a stable digest, no divide-by-zero surprises.
func TestReplayZeroRequests(t *testing.T) {
	base := ftl.DefaultConfig(16 << 20)
	h := newTestHost(t, base, 2, Options{})
	out, err := h.Replay(nil, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Requests != 0 || out.Fragments != 0 || out.M.Requests != 0 {
		t.Fatalf("empty replay reports %+v", out)
	}
	if got := out.M.AvgQueueDepth(); got != 0 {
		t.Fatalf("empty replay AvgQueueDepth = %v", got)
	}
	again, err := h.Replay(nil, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != out.Digest {
		t.Fatal("empty replay digest unstable")
	}
}

// TestReplayRejectsBadTrace pins error routing through Partition.
func TestReplayRejectsBadTrace(t *testing.T) {
	base := ftl.DefaultConfig(16 << 20)
	h := newTestHost(t, base, 2, Options{})
	_, err := h.Replay([]trace.Request{{Offset: -4096, Length: 4096, Op: trace.OpRead}}, ReplayOptions{})
	if err == nil {
		t.Fatal("Replay accepted a malformed request")
	}
}

func TestClientsOfShard(t *testing.T) {
	for clients := 1; clients <= 12; clients++ {
		for shards := 1; shards <= 6; shards++ {
			total := 0
			for s := 0; s < shards; s++ {
				k := clientsOfShard(clients, shards, s)
				if k < 1 {
					t.Fatalf("clients=%d shards=%d: shard %d has no client", clients, shards, s)
				}
				total += k
			}
			want := clients
			if want < shards {
				want = shards
			}
			if total != want {
				t.Fatalf("clients=%d shards=%d: %d lanes dealt, want %d", clients, shards, total, want)
			}
		}
	}
}

// TestShardStateSharesNoLinePair pins what keeps two shard workers — and a
// shard's worker and its device's timing goroutine — from trading cache
// lines: the structs written on every operation — the shard's state, its
// admission queue, its device's chip and scheduler, its translator — overlap
// no 128-byte line pair of one another or of another shard's, although the
// shards are built back to back and the allocator hands them neighbouring
// slots.
func TestShardStateSharesNoLinePair(t *testing.T) {
	const pair = 128
	h := newTestHost(t, ftl.DefaultConfig(16<<20), 4, Options{QueueDepth: 8})
	type span struct {
		what   string
		lo, hi uintptr // first and last byte
	}
	of := func(what string, p unsafe.Pointer, size uintptr) span {
		return span{what, uintptr(p), uintptr(p) + size - 1}
	}
	owner := map[uintptr]string{}
	for s, sh := range h.shards {
		tr := sh.dev.Translator().(*core.FTL)
		for _, sp := range []span{
			of("shard", unsafe.Pointer(sh), unsafe.Sizeof(*sh)),
			of("admission queue", unsafe.Pointer(sh.adm), unsafe.Sizeof(*sh.adm)),
			of("chip", unsafe.Pointer(sh.dev.Chip()), unsafe.Sizeof(*sh.dev.Chip())),
			of("scheduler", unsafe.Pointer(sh.dev.Scheduler()), unsafe.Sizeof(*sh.dev.Scheduler())),
			of("translator", unsafe.Pointer(tr), unsafe.Sizeof(*tr)),
		} {
			who := fmt.Sprintf("shard %d's %s", s, sp.what)
			for l := sp.lo / pair; l <= sp.hi/pair; l++ {
				if other, taken := owner[l]; taken {
					t.Errorf("%s and %s share the line pair at %#x", other, who, l*pair)
				}
				owner[l] = who
			}
		}
	}
}

// probeIter is a request source that records, at every pull, the buffer it
// was handed, the goroutine pulling and how many goroutines exist.
type probeIter struct {
	it      trace.Iterator
	bufs    map[*trace.Request]int // backing array → capacity, per distinct buffer
	pullers map[string]bool        // ids of the goroutines that called Next
	// lo and hi are the low and high water of runtime.NumGoroutine inside
	// Next.
	lo, hi int
}

func (p *probeIter) Next(batch []trace.Request) (int, error) {
	if p.bufs == nil {
		p.bufs, p.pullers, p.lo = map[*trace.Request]int{}, map[string]bool{}, 1<<30
	}
	p.bufs[unsafe.SliceData(batch)] = cap(batch)
	p.pullers[goroutineID()] = true
	n := runtime.NumGoroutine()
	p.lo, p.hi = min(p.lo, n), max(p.hi, n)
	return p.it.Next(batch)
}

// goroutineID reads the calling goroutine's id off its stack header
// ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// goroutinesDownTo returns the goroutine count once it is down to want, or
// what it still is after a second. A goroutine the replay has joined may
// still be on its way out when the replay returns — on a loaded machine, or
// under the race detector, long enough to be counted — but none may outlive
// it by a second.
func goroutinesDownTo(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestOneShardServesOnCaller pins the shape of the one-shard request path:
// ReplayStream pulls on the calling goroutine (no router, no lanes) through
// one Batch-sized pull buffer that a warm-up and the measured phase share,
// and the device's logical half runs there too. At GOMAXPROCS 1 nothing else
// runs. With a spare core the device's timing half runs beside it on exactly
// one more goroutine, joined before ReplayStream returns and fed by one set
// of log chunks that both replays reuse. What the host allocates per replay
// does not grow with the trace. Two shards, by contrast, start workers, and
// the measured replay reuses the warm-up's pull and lane buffers.
func TestOneShardServesOnCaller(t *testing.T) {
	const space = 16 << 20
	const batch = 96
	base := ftl.DefaultConfig(space)
	reqs := mixedTrace(5, 2000, space, int64(base.PageSize), 0)
	caller := goroutineID()
	start := runtime.NumGoroutine()

	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			h := newTestHost(t, base, 1, Options{QueueDepth: 4})
			before := runtime.NumGoroutine()
			// Two replays off one source, the way sim.Run splits warm-up
			// from the measured phase: they share the buffer and the log.
			p := &probeIter{it: trace.NewSliceIterator(reqs)}
			var logBytes []int64
			var big uint64 // objects of 8 KiB or more the measured replay allocates
			for i, it := range []trace.Iterator{trace.Limit(p, 500), p} {
				big0 := bigObjects()
				var err error
				if i == 0 {
					err = h.Warm(it, ReplayOptions{Clients: 4, Batch: batch})
				} else {
					_, err = h.ReplayStream(it, ReplayOptions{Clients: 4, Batch: batch})
				}
				if err != nil {
					t.Fatal(err)
				}
				big = bigObjects() - big0
				if n := goroutinesDownTo(before); n != before {
					t.Errorf("GOMAXPROCS=%d: %d goroutines a second after ReplayStream returned, %d before", procs, n, before)
				}
				logBytes = append(logBytes, h.Device(0).LogBytes())
			}
			want := before
			if procs >= 2 {
				want++
			}
			if p.lo != want || p.hi != want {
				t.Errorf("GOMAXPROCS=%d: %d to %d goroutines while serving, want %d (%d before the call)", procs, p.lo, p.hi, want, before)
			}
			if len(p.pullers) != 1 || !p.pullers[caller] {
				t.Errorf("GOMAXPROCS=%d: pulled on goroutines %v, want the caller's (%s) only", procs, p.pullers, caller)
			}
			if len(p.bufs) != 1 {
				t.Errorf("GOMAXPROCS=%d: pulled into %d distinct buffers over two replays, want 1", procs, len(p.bufs))
			}
			for _, c := range p.bufs {
				if c != batch {
					t.Errorf("GOMAXPROCS=%d: pull buffer holds %d requests, want Batch = %d", procs, c, batch)
				}
			}
			switch {
			case procs == 1 && (logBytes[0] != 0 || logBytes[1] != 0):
				t.Errorf("inline replays hold %v B of log chunks, want none", logBytes)
			case procs >= 2 && (logBytes[0] == 0 || logBytes[0] > 64<<10 || logBytes[1] != logBytes[0]):
				t.Errorf("the pipelined replays hold %v B of log chunks, want one set of at most 64 KiB", logBytes)
			case big > outcomeObjects:
				// The measured replay's chunks are the warm-up's.
				t.Errorf("GOMAXPROCS=%d: the measured replay allocated %d objects of 8 KiB or more", procs, big)
			}
		}()
	}

	before := goroutinesDownTo(start)
	h2 := newTestHost(t, base, 2, Options{QueueDepth: 4})
	p2 := &probeIter{it: trace.NewSliceIterator(reqs)}
	if _, err := h2.ReplayStream(p2, ReplayOptions{Batch: batch}); err != nil {
		t.Fatal(err)
	}
	if p2.hi < before+2 {
		t.Errorf("two shards: %d goroutines while serving, want a worker per shard over %d", p2.hi, before)
	}

	// The two-shard twin of the buffer reuse above: the warm-up builds the
	// router's pull buffer and lane buffers, the measured replay serves
	// through the same ones — inline, and at GOMAXPROCS 4 with both timing
	// halves pipelined — at a Batch of 512 and at sim.Run's default of 4096,
	// whose pull buffer is 128 KiB.
	for _, c := range []struct{ procs, batch int }{{1, 512}, {4, 512}, {4, 4096}} {
		procs := c.procs
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			h := newTestHost(t, base, 2, Options{QueueDepth: 4})
			p := &probeIter{it: trace.NewSliceIterator(reqs)}
			o := ReplayOptions{Clients: 4, Batch: c.batch}
			if err := h.Warm(trace.Limit(p, 500), o); err != nil {
				t.Fatal(err)
			}
			big0 := bigObjects()
			if _, err := h.ReplayStream(p, o); err != nil {
				t.Fatal(err)
			}
			if big := bigObjects() - big0; big > outcomeObjects {
				t.Errorf("two shards, GOMAXPROCS=%d, Batch %d: the measured replay allocated %d objects of 8 KiB or more", procs, c.batch, big)
			}
			if len(p.bufs) != 1 {
				t.Errorf("two shards, GOMAXPROCS=%d: pulled into %d distinct buffers over two replays, want 1", procs, len(p.bufs))
			}
			for s, lane := range h.rt.lanes {
				for i, l := range lane {
					if len(l.free) != 2 || len(l.data) != 0 {
						t.Errorf("two shards, GOMAXPROCS=%d: shard %d lane %d holds %d free and %d queued buffers, want 2 and 0", procs, s, i, len(l.free), len(l.data))
					}
				}
			}
		}()
	}

	if !allocGuardsEnabled {
		return
	}
	// An empty source isolates what the host itself allocates per replay
	// (whatever the device allocates while serving is the device's).
	// AllocsPerRun runs at GOMAXPROCS 1, so this is the inline arrangement;
	// TestPipelinedReplayAllocatesNothingPerRequest covers the other.
	h := newTestHost(t, base, 1, Options{QueueDepth: 4})
	allocs := func(h *Host) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := h.ReplayStream(trace.NewSliceIterator(nil), ReplayOptions{Batch: batch}); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, two := allocs(h), allocs(h2)
	t.Logf("host allocations per empty ReplayStream: %v at one shard, %v at two", one, two)
	// The source and the outcome with its two slices; the pull buffer is
	// the host's. At two shards the router's buffers and channels are the
	// host's too, which leaves two allocations per shard to start its worker.
	if one > 4 {
		t.Errorf("one-shard ReplayStream allocates %v times, want the source and the outcome only", one)
	}
	if two > 4+2*2 {
		t.Errorf("two-shard ReplayStream allocates %v times, want the source, the outcome and the two workers' starts only", two)
	}
}

// TestRouterReuseAcrossShapes replays the same traces back to back on two
// hosts, one keeping Batch and Clients fixed and one changing them between
// replays, at two and at four shards. Every outcome matches: a router reused
// at one shape, or rebuilt for another, never serves a stale fragment.
func TestRouterReuseAcrossShapes(t *testing.T) {
	const space = 32 << 20
	base := ftl.DefaultConfig(space)
	shapes := []ReplayOptions{{Batch: 64, Clients: 2}, {Batch: 17, Clients: 5}, {Batch: 1, Clients: 9}, {Batch: 4096, Clients: 9}, {Batch: 4096, Clients: 9}}
	for _, shards := range []int{2, 4} {
		fixed := newTestHost(t, base, shards, Options{QueueDepth: 8})
		changing := newTestHost(t, base, shards, Options{QueueDepth: 8})
		for i, o := range shapes {
			reqs := mixedTrace(int64(20+i), 1500, space, int64(base.PageSize), 0)
			want, err := fixed.Replay(reqs, ReplayOptions{Batch: 64, Clients: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := changing.Replay(reqs, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d shards, replay %d (Batch %d, Clients %d): outcome diverges from the fixed-shape host's", shards, i, o.Batch, o.Clients)
			}
		}
	}
}

// failAfter is a request source that fails after serving a number of
// batches.
type failAfter struct {
	it      trace.Iterator
	batches int
	err     error
}

func (f *failAfter) Next(batch []trace.Request) (int, error) {
	if f.batches == 0 {
		return 0, f.err
	}
	f.batches--
	return f.it.Next(batch)
}

// TestSourceErrorMidStream: a source that fails after two batches aborts the
// replay with an error that wraps the source's, no outcome, and no goroutine
// left behind. Every buffer is back on the host: the next replay allocates no
// object of 8 KiB or more and serves exactly the fragments it routes.
func TestSourceErrorMidStream(t *testing.T) {
	const space = 16 << 20
	const batch = 512 // pull and lane buffers of 16 KiB
	base := ftl.DefaultConfig(space)
	reqs := mixedTrace(7, 6000, space, int64(base.PageSize), 0)
	errSource := errors.New("source failed")
	o := ReplayOptions{Batch: batch}
	for _, shards := range []int{1, 2} {
		h := newTestHost(t, base, shards, Options{QueueDepth: 4})
		// Counted before any replay: one that has returned may still have a
		// goroutine on its way out.
		before := runtime.NumGoroutine()
		if _, err := h.Replay(reqs[:batch], o); err != nil {
			t.Fatal(err)
		}
		out, err := h.ReplayStream(&failAfter{it: trace.NewSliceIterator(reqs), batches: 2, err: errSource}, o)
		if !errors.Is(err, errSource) || out != nil {
			t.Fatalf("%d shards: outcome %v, error %v; want none beside the source's error", shards, out, err)
		}
		if n := goroutinesDownTo(before); n > before {
			t.Errorf("%d shards: %d goroutines a second after the failed replay, %d before", shards, n, before)
		}
		big0 := bigObjects()
		out, err = h.Replay(reqs[batch:], o)
		big := bigObjects() - big0
		if err != nil {
			t.Fatal(err)
		}
		if big > outcomeObjects {
			t.Errorf("%d shards: the replay after the failure allocated %d objects of 8 KiB or more", shards, big)
		}
		var served int64
		for _, sr := range out.Shards {
			served += sr.Admitted
		}
		if served != out.Fragments {
			t.Errorf("%d shards: the replay after the failure served %d fragments, routed %d", shards, served, out.Fragments)
		}
	}
}

// TestDeviceErrorMidStream pins what a device failure looks like from the
// host: the outcome so far beside an error that names the shard and the
// failing request's index in its stream, with the device's own error intact.
func TestDeviceErrorMidStream(t *testing.T) {
	const space = 16 << 20
	base := ftl.DefaultConfig(space)
	reqs := mixedTrace(6, 2000, space, int64(base.PageSize), 0)
	for _, shards := range []int{1, 2} {
		h := newTestHost(t, base, shards, Options{QueueDepth: 4})
		h.Device(0).Chip().SetFaultPlan(&flash.FaultPlan{Seed: 1, CutAtOp: 300})
		out, err := h.Replay(reqs, ReplayOptions{Batch: 7})
		if !errors.Is(err, flash.ErrPowerCut) {
			t.Fatalf("%d shards: errors.Is(err, flash.ErrPowerCut) is false for %v", shards, err)
		}
		if out == nil {
			t.Fatalf("%d shards: no outcome beside the device error", shards)
		}
		served := out.Shards[0].Admitted
		if served == 0 || served >= int64(len(reqs)) {
			t.Fatalf("%d shards: shard 0 served %d of %d requests before the cut", shards, served, len(reqs))
		}
		if want := fmt.Sprintf("shard 0: request %d:", served); !strings.Contains(err.Error(), want) {
			t.Errorf("%d shards: error does not name %q: %v", shards, want, err)
		}
	}
}

// TestPowerCutIndependentOfGOMAXPROCS: a one-shard replay whose device loses
// power in the middle of a multi-page request fails the same way on one core
// as on two — the same error text, and the same EventHash, which holds the
// failing request's flash operations issued before the cut.
func TestPowerCutIndependentOfGOMAXPROCS(t *testing.T) {
	const space = 16 << 20
	base := ftl.DefaultConfig(space)
	base.Channels, base.Dies = 2, 2
	reqs := mixedTrace(8, 1500, space, int64(base.PageSize), 40_000)
	type outcome struct {
		err     string
		served  int64
		hash    uint64
		ops     int64
		metrics ftl.Metrics
	}
	run := func(procs int, reqs []trace.Request, cut int64) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		h := newTestHost(t, base, 1, Options{QueueDepth: 4})
		if cut > 0 {
			h.Device(0).Chip().SetFaultPlan(&flash.FaultPlan{Seed: 3, CutAtOp: cut})
		}
		out, err := h.ReplayStream(trace.NewSliceIterator(reqs), ReplayOptions{Batch: 50})
		if out == nil || (cut > 0) != errors.Is(err, flash.ErrPowerCut) {
			t.Fatalf("GOMAXPROCS=%d: outcome %v, error %v", procs, out, err)
		}
		o := outcome{served: out.Shards[0].Admitted, hash: out.Shards[0].EventHash, metrics: out.Shards[0].M}
		if err != nil {
			o.err = err.Error()
		}
		o.ops = h.Device(0).Scheduler().Ops()
		return o
	}
	one, two := run(1, reqs, 40_001), run(2, reqs, 40_001)
	if one.err != two.err {
		t.Errorf("error text differs:\n GOMAXPROCS=1: %s\n GOMAXPROCS=2: %s", one.err, two.err)
	}
	if one.hash != two.hash || one.ops != two.ops {
		t.Errorf("EventHash %#x after %d ops at GOMAXPROCS=1, %#x after %d at 2", one.hash, one.ops, two.hash, two.ops)
	}
	if one.metrics != two.metrics {
		t.Error("metrics differ")
	}
	// The cut lands inside a request: the same prefix served without a fault
	// plan scheduled fewer operations and hashed differently.
	if r := reqs[one.served]; r.Length <= int64(base.PageSize) {
		t.Fatalf("request %d, where the cut lands, is %+v: want a multi-page one", one.served, r)
	}
	clean := run(2, reqs[:one.served], 0)
	if clean.ops >= one.ops || clean.hash == one.hash {
		t.Errorf("the failing request issued nothing before the cut: %d ops without it, %d with", clean.ops, one.ops)
	}
}
