package sim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenOptions is the fixed serial-baseline run whose metrics were captured
// on the original scalar-clock implementation. The request path at one shard,
// 1 channel × 1 die × queue depth 1 must reproduce them bit-for-bit: a
// single die serializes every operation in issue order, so each request's
// span is the sum of its operation latencies — exactly the old model.
func goldenOptions(s Scheme) Options {
	return Options{
		Scheme:           s,
		Profile:          workload.Financial1().Scale(64 << 20),
		Requests:         8_000,
		Seed:             42,
		Precondition:     1,
		ResetAfterWarmup: 800,
	}
}

// serialGolden holds the scalar-clock capture for the two deterministic
// schemes. (S-FTL is excluded: it is nondeterministic run-to-run in the
// baseline too, so it has no stable golden value to hold.)
var serialGolden = map[Scheme]struct {
	requests                               int64
	serviceTime, responseTime, queueTime   time.Duration
	maxResponse, gcTime                    time.Duration
	flashReads, flashPrograms, flashErases int64
	lookups, hits                          int64
	transReadsAT, transWritesAT            int64
}{
	SchemeTPFTL: {7200, 6813500000, 18812150034, 11998650034, 18000000, 4775700000,
		26200, 27560, 431, 10537, 6112, 5472, 1047},
	SchemeDFTL: {7200, 8314500000, 22684046065, 14369546065, 18975000, 5217825000,
		34456, 33358, 521, 10537, 3654, 12363, 5480},
}

// TestSerialGoldenCompatibility pins the compatibility guarantee of the
// request path: the default geometry, shard count and queue depth reproduce
// the pre-scheduler metrics exactly, timing included. (That Shards: 1 is the
// same run is TestRequestPathEquivalence's.)
func TestSerialGoldenCompatibility(t *testing.T) {
	for s, want := range serialGolden {
		s, want := s, want
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			r, err := Run(goldenOptions(s))
			if err != nil {
				t.Fatal(err)
			}
			m := r.M
			got := [13]int64{m.Requests, int64(m.ServiceTime), int64(m.ResponseTime),
				int64(m.QueueTime), int64(m.MaxResponse), int64(m.GCTime),
				m.FlashReads, m.FlashPrograms, m.FlashErases, m.Lookups, m.Hits,
				m.TransReadsAT, m.TransWritesAT}
			exp := [13]int64{want.requests, int64(want.serviceTime), int64(want.responseTime),
				int64(want.queueTime), int64(want.maxResponse), int64(want.gcTime),
				want.flashReads, want.flashPrograms, want.flashErases, want.lookups, want.hits,
				want.transReadsAT, want.transWritesAT}
			if got != exp {
				t.Fatalf("serial baseline diverged from the scalar-clock golden\n got %v\nwant %v", got, exp)
			}
			if m.Channels != ftl.DefaultChannels || m.DiesPerChannel != ftl.DefaultDies {
				t.Fatalf("default geometry = %d×%d", m.Channels, m.DiesPerChannel)
			}

		})
	}
}

// hostDigest recomputes a result's merged digest from its per-shard event
// hashes.
func hostDigest(r *Result) uint64 {
	hashes := make([]uint64, len(r.Shards))
	for i, s := range r.Shards {
		hashes[i] = s.EventHash
	}
	return host.Digest(hashes)
}

// parallelRun executes one deterministic parallel run against a directly
// built device and returns its metrics and the scheduler's event hash.
func parallelRun(t *testing.T, s Scheme, qd int) (ftl.Metrics, uint64) {
	t.Helper()
	space := int64(32 << 20)
	cfg := ftl.DefaultConfig(space)
	cfg.CacheBytes = ftl.DefaultCacheBytes(space)
	cfg.Channels = 4
	cfg.Dies = 2
	tr, err := NewTranslator(s, cfg.CacheBytes, cfg.LogicalPages(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ftl.NewDevice(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Format(); err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Financial1().Scale(space), 4_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	dev.Chip().SetFaultPlan(&flash.FaultPlan{
		Seed:        17,
		ReadProb:    0.001,
		ProgramProb: 0.001,
	})
	admitAll(t, dev, qd, reqs)
	return dev.Metrics(), dev.Scheduler().EventHash()
}

// admitAll serves every request on a directly built device through a bare
// ssd.Admitter of the given queue depth.
func admitAll(t *testing.T, dev *ftl.Device, qd int, reqs []trace.Request) {
	t.Helper()
	a := ssd.NewAdmitter(qd)
	for i, r := range reqs {
		if _, err := a.Admit(dev, r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestSchedulerDeterminism runs the same seeded workload with the same fault
// plan twice on a 4×2 device at queue depth 8 and requires the two runs to
// have scheduled the identical event sequence — not merely to agree on
// summary metrics. EventHash folds every (die, start, end) triple in order,
// so any divergence in op placement or timing flips it.
func TestSchedulerDeterminism(t *testing.T) {
	m1, h1 := parallelRun(t, SchemeTPFTL, 8)
	m2, h2 := parallelRun(t, SchemeTPFTL, 8)
	if h1 != h2 {
		t.Fatalf("event hashes diverged across identical runs: %x vs %x", h1, h2)
	}
	if m1 != m2 {
		t.Fatalf("metrics diverged across identical runs\n m1 %+v\n m2 %+v", m1, m2)
	}
	if m1.InjectedFaults == 0 {
		t.Fatal("no faults injected; the determinism property is untested under faults")
	}
}

// TestSFTLDeterminism pins the S-FTL nondeterminism fix: its dirty-buffer
// flush victim, writeback update order, and GC flush order all used to leak
// Go map iteration order into the WriteTP sequence, so two identical runs
// scheduled different event sequences (flagged as pre-existing at the seed in
// CHANGES.md). After sorting those paths, identical seeded runs — faults
// included — must produce identical event hashes, same as the other schemes.
func TestSFTLDeterminism(t *testing.T) {
	m1, h1 := parallelRun(t, SchemeSFTL, 8)
	m2, h2 := parallelRun(t, SchemeSFTL, 8)
	if h1 != h2 {
		t.Fatalf("S-FTL event hashes diverged across identical runs: %x vs %x", h1, h2)
	}
	if m1 != m2 {
		t.Fatalf("S-FTL metrics diverged across identical runs\n m1 %+v\n m2 %+v", m1, m2)
	}
	if m1.InjectedFaults == 0 {
		t.Fatal("no faults injected; the determinism property is untested under faults")
	}
}

// randomReadTrace builds back-to-back 4 KB random reads (arrival 0) over the
// first footprint bytes of the device: a device-bound workload where
// throughput is limited only by flash occupancy.
func randomReadTrace(n int, footprint int64, seed int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]trace.Request, n)
	pages := footprint / 4096
	for i := range reqs {
		reqs[i] = trace.Request{Offset: rng.Int63n(pages) * 4096, Length: 4096}
	}
	return reqs
}

// speedupElapsed runs the random-read trace at queue depth qd on a device
// with the given channel count and returns the total simulated time.
func speedupElapsed(t *testing.T, channels, qd int) time.Duration {
	t.Helper()
	r, err := Run(Options{
		Scheme:       SchemeTPFTL,
		Profile:      workload.Financial1(),
		AddressSpace: 64 << 20,
		Trace:        randomReadTrace(3_000, 48<<20, 5),
		Precondition: 1, // map the footprint so reads hit flash
		QueueDepth:   qd,
		Channels:     channels,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.M.Elapsed <= 0 {
		t.Fatalf("no elapsed time recorded: %+v", r.M)
	}
	return r.M.Elapsed
}

// TestParallelSpeedup is the headline property of the backend: at queue
// depth 8, striping random reads across 4 channels must finish the same
// trace in at most half the simulated time of the 1-channel device.
func TestParallelSpeedup(t *testing.T) {
	serial := speedupElapsed(t, 1, 8)
	par := speedupElapsed(t, 4, 8)
	if par*2 > serial {
		t.Fatalf("4-channel QD8 elapsed %v vs 1-channel %v: speedup %.2fx < 2x",
			par, serial, float64(serial)/float64(par))
	}
	t.Logf("random-read speedup at QD8: 1ch %v -> 4ch %v (%.2fx)",
		serial, par, float64(serial)/float64(par))
}

// TestQueueDepthSweepSmoke is the queue-depth sweep: on a 4-channel device a
// deeper queue must never make the same trace slower, and depth > 1 must
// beat depth 1 outright (there is exploitable parallelism).
func TestQueueDepthSweepSmoke(t *testing.T) {
	var prev time.Duration
	var qd1 time.Duration
	for _, qd := range []int{1, 2, 4, 8} {
		e := speedupElapsed(t, 4, qd)
		t.Logf("qd=%d elapsed=%v", qd, e)
		if qd == 1 {
			qd1 = e
		} else if e > prev {
			t.Fatalf("qd=%d elapsed %v exceeds qd/2 elapsed %v", qd, e, prev)
		}
		prev = e
	}
	if prev >= qd1 {
		t.Fatalf("qd=8 elapsed %v not better than qd=1 %v", prev, qd1)
	}
}
