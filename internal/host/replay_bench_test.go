package host

import (
	"fmt"
	"testing"

	"repro/internal/ftl"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkReplayTwoShards replays a Financial2 stream on a host of the
// referee benchmark's mixed2 shape — two shards of 4 channels × 2 dies at
// queue depth 8, Batch 4096 — at 2, 4 and 8 client lanes, the evidence on
// whether lanes beyond one a shard buy anything. One op replays the same
// 2^17 requests on a host they have warmed; ns/req divides by them.
func BenchmarkReplayTwoShards(b *testing.B) {
	const space = 512 << 20
	base := ftl.DefaultConfig(space)
	base.Channels, base.Dies = 4, 2
	g, err := workload.NewGenerator(workload.Financial2().Scale(space), 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := g.Generate(1 << 17)
	for _, clients := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			h := newTestHost(b, base, 2, Options{QueueDepth: 8})
			o := ReplayOptions{Batch: 4096, Clients: clients}
			if err := h.Warm(trace.NewSliceIterator(reqs), o); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for range b.N {
				if _, err := h.Replay(reqs, o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
		})
	}
}
