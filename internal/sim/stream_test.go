package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// streamTestOptions is the shared base of the streamed-vs-eager equivalence
// runs: a mixed read/write workload small enough to replay in every
// admission mode under -race.
func streamTestOptions(scheme Scheme) Options {
	return Options{
		Scheme:           scheme,
		Profile:          workload.Financial1().Scale(64 << 20),
		Requests:         6_000,
		Seed:             7,
		ResetAfterWarmup: 600,
	}
}

// writeBinaryTrace serializes reqs into a temp binary trace file and returns
// its path.
func writeBinaryTrace(t *testing.T, reqs []trace.Request) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.ftr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := trace.NewBinaryWriter(f, trace.BinaryHeader{Source: trace.FormatNative})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if err := bw.WriteRequest(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamedReplayMatchesEager pins the streaming engine's core contract:
// replaying a trace through TraceStream — from a binary file, in batches —
// produces bit-for-bit the metrics, trace statistics, per-shard results and
// merged digest of the eager slice replay, across every admission mode.
func TestStreamedReplayMatchesEager(t *testing.T) {
	base := streamTestOptions(SchemeTPFTL)
	reqs, err := workload.Generate(base.Profile, base.Requests, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	path := writeBinaryTrace(t, reqs)

	modes := []struct {
		name string
		mod  func(*Options)
	}{
		{"serial-qd1", func(o *Options) {}},
		{"qd8-4ch", func(o *Options) { o.QueueDepth = 8; o.Channels = 4; o.Dies = 2 }},
		{"open-loop", func(o *Options) { o.OpenLoop = true }},
		{"precondition", func(o *Options) { o.Precondition = 0.5 }},
		{"shards2", func(o *Options) { o.Shards = 2; o.Clients = 4 }},
		{"shards2-qd8", func(o *Options) { o.Shards = 2; o.QueueDepth = 8; o.Precondition = 0.5 }},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			eagerOpt := streamTestOptions(SchemeTPFTL)
			eagerOpt.Trace = reqs
			mode.mod(&eagerOpt)
			eager, err := Run(eagerOpt)
			if err != nil {
				t.Fatalf("eager: %v", err)
			}

			// Stream from the binary file, with a batch size that does not
			// divide the trace length so batches straddle every boundary.
			s, err := trace.OpenBinary(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			streamOpt := streamTestOptions(SchemeTPFTL)
			streamOpt.TraceStream = s
			streamOpt.StreamBatch = 509
			mode.mod(&streamOpt)
			streamed, err := Run(streamOpt)
			if err != nil {
				t.Fatalf("streamed: %v", err)
			}

			if !reflect.DeepEqual(streamed.M, eager.M) {
				t.Errorf("streamed metrics diverge from eager:\n got  %+v\n want %+v", streamed.M, eager.M)
			}
			if streamed.TraceStats != eager.TraceStats {
				t.Errorf("streamed trace stats diverge:\n got  %+v\n want %+v", streamed.TraceStats, eager.TraceStats)
			}
			if streamed.Digest != eager.Digest {
				t.Errorf("streamed digest %#x != eager %#x", streamed.Digest, eager.Digest)
			}
			if !reflect.DeepEqual(streamed.Shards, eager.Shards) {
				t.Errorf("per-shard results diverge:\n got  %+v\n want %+v", streamed.Shards, eager.Shards)
			}
		})
	}
}

// TestStreamedReplaySliceIterator is TestRequestPathEquivalence's stream-vs-
// trace row on a second scheme (DFTL): streaming a slice in odd batches must
// equal replaying it as a Trace.
func TestStreamedReplaySliceIterator(t *testing.T) {
	base := streamTestOptions(SchemeDFTL)
	reqs, err := workload.Generate(base.Profile, base.Requests, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	eagerOpt := base
	eagerOpt.Trace = reqs
	eager, err := Run(eagerOpt)
	if err != nil {
		t.Fatal(err)
	}
	streamOpt := base
	streamOpt.TraceStream = trace.NewSliceIterator(reqs)
	streamOpt.StreamBatch = 333
	streamed, err := Run(streamOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, eager) {
		t.Fatalf("streamed result diverges from the trace's:\n got  %+v\n want %+v", streamed, eager)
	}
}

// memWatchIter passes batches through while periodically forcing a GC and
// recording the live-heap high water, so a test can assert that replaying a
// longer trace does not grow resident memory.
type memWatchIter struct {
	it      trace.Iterator
	batches int
	every   int
	peak    uint64
}

func (m *memWatchIter) Next(batch []trace.Request) (int, error) {
	n, err := m.it.Next(batch)
	m.batches++
	if m.batches%m.every == 0 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > m.peak {
			m.peak = ms.HeapAlloc
		}
	}
	return n, err
}

// streamSyntheticTrace writes n sequential-read requests over a fixed
// footprint to a binary temp file without materializing them.
func streamSyntheticTrace(t *testing.T, n int, footPages int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "synthetic.ftr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := trace.NewBinaryWriter(f, trace.BinaryHeader{Source: trace.FormatNative, PageBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const span = 8
	for i := 0; i < n; i++ {
		start := (int64(i) * span) % (footPages - span)
		if err := bw.WriteRequest(trace.Request{
			Arrival: int64(i),
			Offset:  start * 4096,
			Length:  span * 4096,
			Op:      trace.OpRead,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamBoundedMemory is the trace-size-independence assertion: the
// live-heap high water of a streamed replay must not grow with the trace. An
// 8× longer trace over the same footprint gets a modest absolute slack, not
// a proportional one — if replay buffered the trace, the long run would
// exceed it by tens of MB.
func TestStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-profiled replay is slow under -short")
	}
	const footPages = 4096 // 16 MB footprint inside the 64 MB space
	run := func(n int) uint64 {
		path := streamSyntheticTrace(t, n, footPages)
		s, err := trace.OpenBinary(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		mw := &memWatchIter{it: s, every: 8}
		_, err = Run(Options{
			Scheme:        SchemeTPFTL,
			Profile:       workload.Financial1().Scale(64 << 20),
			TraceStream:   mw,
			StreamBatch:   4096,
			CacheFraction: 1.0 / 128,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mw.peak
	}
	shortPeak := run(100_000)
	longPeak := run(800_000)
	t.Logf("live-heap high water: short=%d KB long=%d KB", shortPeak>>10, longPeak>>10)
	// 800k extra requests would be ≥25 MB if buffered; allow 8 MB of noise.
	const slack = 8 << 20
	if longPeak > shortPeak+slack {
		t.Fatalf("8× longer trace grew the live-heap high water from %d to %d bytes (> %d slack): replay is not streaming",
			shortPeak, longPeak, slack)
	}
}
