package host

import (
	"runtime"
	"testing"

	"repro/internal/ftl"
	"repro/internal/trace"
)

// TestPipelinedReplayAllocatesNothingPerRequest holds a warmed one-shard
// replay with its timing half on a goroutine of its own at zero heap
// allocations per request: replaying a few thousand requests allocates no
// more than replaying half as many.
func TestPipelinedReplayAllocatesNothingPerRequest(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const space = 16 << 20
	base := ftl.DefaultConfig(space)
	base.Channels, base.Dies = 4, 2
	// Flush barriers are left out: TPFTL sorts a flush's writebacks with
	// sort.Slice, which allocates whoever serves the request.
	var reqs []trace.Request
	for _, r := range mixedTrace(9, 4000, space, int64(base.PageSize), 0) {
		if r.Op != trace.OpFlush {
			reqs = append(reqs, r)
		}
	}
	h := newTestHost(t, base, 1, Options{QueueDepth: 8})
	// Each replay allocates a few objects of its own — the outcome, the
	// admission queue's array, the timing goroutine's start, and now and
	// then a goroutine or a wait-queue entry in the runtime — so the fewest
	// of a few replays is compared.
	replay := func(reqs []trace.Request) uint64 {
		least := uint64(1 << 62)
		for i := 0; i < 3; i++ {
			least = min(least, mallocs(func() {
				if _, err := h.Replay(reqs, ReplayOptions{Batch: 256}); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	replay(reqs) // warm: the cache, the log's chunks
	half, full := replay(reqs[:len(reqs)/2]), replay(reqs)
	t.Logf("a pipelined replay allocates %d objects for %d requests, %d for %d", half, len(reqs)/2, full, len(reqs))
	// The runtime's own share (goroutines, wait-queue entries) depends on
	// how the two goroutines happened to meet; a few objects of slack keep
	// that out, while one allocation per request would be 1921 more.
	if full > half+4 {
		t.Errorf("replaying %d requests allocates %d objects, %d more than replaying %d",
			len(reqs), full, full-half, len(reqs)/2)
	}
}

// mallocs returns how many heap objects f allocates, counted across all
// goroutines (testing.AllocsPerRun would pin GOMAXPROCS to 1, and with it the
// host to the inline arrangement).
func mallocs(f func()) uint64 {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	f()
	runtime.ReadMemStats(&ms1)
	return ms1.Mallocs - ms0.Mallocs
}

// TestPipelinedRequestSpansChunks: one write large enough to make a small
// device collect over and over issues far more flash operations than the
// whole operation log holds, so its records cross chunk after chunk while the
// timing goroutine is still replaying them. The outcome is the same as inline,
// and the log does not grow to hold the request.
func TestPipelinedRequestSpansChunks(t *testing.T) {
	const space = 8 << 20
	base := ftl.DefaultConfig(space)
	reqs := []trace.Request{
		{Arrival: 0, Offset: 0, Length: 8 << 10, Op: trace.OpWrite},
		{Arrival: 1_000, Offset: 64 << 10, Length: 4 << 10, Op: trace.OpRead},
		{Arrival: 2_000, Offset: 0, Length: space * 7 / 8, Op: trace.OpWrite},
		{Arrival: 3_000, Offset: 128 << 10, Length: 16 << 10, Op: trace.OpRead},
		{Arrival: 4_000, Offset: 0, Length: 0, Op: trace.OpFlush},
	}
	type outcome struct {
		m        ftl.Metrics
		hash     uint64
		ops      int64
		logBytes int64
		big      uint64 // objects of 8 KiB or more allocated by the replay
	}
	run := func(procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		h := newTestHost(t, base, 1, Options{QueueDepth: 2})
		// The first two requests on their own first, so that the log's
		// chunks exist before the large write is replayed.
		if _, err := h.Replay(reqs[:2], ReplayOptions{Batch: 2}); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		out, err := h.Replay(reqs[2:], ReplayOptions{Batch: 2})
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		dev := h.Device(0)
		return outcome{out.Shards[0].M, out.Shards[0].EventHash, dev.Scheduler().Ops(), dev.LogBytes(), bigObjects(&ms1) - bigObjects(&ms0)}
	}
	inline, piped := run(1), run(2)
	if inline.m != piped.m || inline.hash != piped.hash {
		t.Errorf("pipelined: EventHash %#x, metrics equal %v; inline: EventHash %#x", piped.hash, inline.m == piped.m, inline.hash)
	}
	if inline.m.GCDataCollections == 0 {
		t.Fatal("the large write never made the device collect")
	}
	// A log record is at least 8 bytes: the replay issued more operations
	// than the whole log can hold at once.
	if piped.logBytes == 0 || piped.ops < piped.logBytes/8 {
		t.Errorf("%d flash operations against a log of %d B: the test no longer spans the log", piped.ops, piped.logBytes)
	}
	if piped.logBytes > 64<<10 || piped.big != 0 {
		t.Errorf("the log holds %d B; %d objects of 8 KiB or more were allocated while the large write replayed", piped.logBytes, piped.big)
	}
}

// bigObjects counts the heap objects of 8 KiB or more allocated so far, up to
// 18 KiB: MemStats.BySize ends at the 18 KiB size class, so a larger object —
// an Outcome's per-shard results, 53 KiB a shard, among them — is not
// counted. A guard that uses it sizes what it watches into that range.
func bigObjects(ms *runtime.MemStats) uint64 {
	var n uint64
	for _, c := range ms.BySize {
		if c.Size >= 8<<10 {
			n += c.Mallocs
		}
	}
	return n
}
