package core

import (
	"math/rand"
	"testing"

	"repro/internal/ftl"
	"repro/internal/trace"
)

// BenchmarkRandReadMiss drives TPFTL through a real device in the pattern of
// the referee benchmark's randread workload: uniform single-page reads over
// ¾ of a 512 MiB device of 4 channels × 2 dies, written there first, at the
// default cache budget. About one lookup in a hundred hits, so nearly every
// request is a miss that evicts one victim to make room. One op is one read.
func BenchmarkRandReadMiss(b *testing.B) {
	const logicalBytes = 512 << 20
	cfg := ftl.DefaultConfig(logicalBytes)
	cfg.Channels, cfg.Dies = 4, 2
	d, err := ftl.NewDevice(cfg, New(DefaultConfig(ftl.DefaultCacheBytes(logicalBytes))))
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Format(); err != nil {
		b.Fatal(err)
	}
	pages := cfg.LogicalPages() * 3 / 4
	if err := d.PreconditionRange(int(pages), pages, 1); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	read := func() {
		r := trace.Request{Offset: rng.Int63n(pages) * ftl.DefaultPageBytes, Length: ftl.DefaultPageBytes}
		if _, err := d.Serve(r); err != nil {
			b.Fatal(err)
		}
	}
	// Fill the cache first: from then on every miss evicts.
	for range 50_000 {
		read()
	}
	b.ResetTimer()
	for range b.N {
		read()
	}
}
