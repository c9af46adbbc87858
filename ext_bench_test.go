// Extension benchmarks beyond the paper's figures: the §2.1 mapping
// granularity taxonomy, GC policy and wear-leveling ablations (§2.3), the
// exact-average page-level hotness ordering (§4.2's definition vs. the LRU
// approximation), the ZFTL baseline (§2.2), and the CFLRU data buffer in
// front of TPFTL (§2.1's RAM split).
package tpftl_test

import (
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ftl/blockftl"
	"repro/internal/ftl/fast"
	"repro/internal/ftl/hybrid"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// serveEach serves reqs in order on one of the standalone devices.
func serveEach(b *testing.B, d interface {
	Serve(trace.Request) (time.Duration, error)
}, reqs []trace.Request) {
	b.Helper()
	for i := range reqs {
		if _, err := d.Serve(reqs[i]); err != nil {
			b.Fatalf("request %d: %v", i, err)
		}
	}
}

// BenchmarkMappingGranularity compares block-level, hybrid (BAST) and
// page-level (TPFTL) mapping on the same random-write stream — the §2.1
// taxonomy trade-off.
func BenchmarkMappingGranularity(b *testing.B) {
	const space = 64 << 20
	p := workload.Financial1().Scale(space)
	reqs, err := workload.Generate(p, 20_000, 7)
	if err != nil {
		b.Fatal(err)
	}
	devCfg := ftl.Config{LogicalBytes: space, PageSize: 4096, OverProvision: 0.15}

	b.Run("block", func(b *testing.B) {
		var m ftl.Metrics
		for i := 0; i < b.N; i++ {
			d, err := blockftl.New(devCfg)
			if err != nil {
				b.Fatal(err)
			}
			serveEach(b, d, reqs)
			m = d.Metrics()
		}
		b.ReportMetric(m.WriteAmplification(), "WA")
		b.ReportMetric(float64(m.AvgResponse().Microseconds()), "resp-µs")
	})
	b.Run("hybrid-BAST", func(b *testing.B) {
		var m ftl.Metrics
		for i := 0; i < b.N; i++ {
			d, err := hybrid.New(hybrid.Config{Device: devCfg})
			if err != nil {
				b.Fatal(err)
			}
			serveEach(b, d, reqs)
			m = d.Metrics()
		}
		b.ReportMetric(m.WriteAmplification(), "WA")
		b.ReportMetric(float64(m.AvgResponse().Microseconds()), "resp-µs")
	})
	b.Run("hybrid-FAST", func(b *testing.B) {
		var m ftl.Metrics
		for i := 0; i < b.N; i++ {
			d, err := fast.New(fast.Config{Device: devCfg})
			if err != nil {
				b.Fatal(err)
			}
			serveEach(b, d, reqs)
			m = d.Metrics()
		}
		b.ReportMetric(m.WriteAmplification(), "WA")
		b.ReportMetric(float64(m.AvgResponse().Microseconds()), "resp-µs")
	})
	b.Run("page-TPFTL", func(b *testing.B) {
		var r *sim.Result
		for i := 0; i < b.N; i++ {
			var err error
			r, err = sim.Run(sim.Options{Scheme: sim.SchemeTPFTL, Profile: p, Trace: reqs, Precondition: 1})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.M.WriteAmplification(), "WA")
		b.ReportMetric(float64(r.M.AvgResponse().Microseconds()), "resp-µs")
	})
}

// BenchmarkGCPolicy compares greedy and cost-benefit victim selection under
// TPFTL on a hot/cold workload.
func BenchmarkGCPolicy(b *testing.B) {
	e := benchScale()
	p := benchProfiles()[0]
	for _, pol := range []ftl.GCPolicy{ftl.GCGreedy, ftl.GCCostBenefit} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var m ftl.Metrics
			for i := 0; i < b.N; i++ {
				m = runWithDeviceConfig(b, p, e, func(c *ftl.Config) { c.GCPolicy = pol })
			}
			b.ReportMetric(m.WriteAmplification(), "WA")
			b.ReportMetric(m.Vd(), "Vd")
			b.ReportMetric(float64(m.FlashErases), "erases")
		})
	}
}

// BenchmarkWearLeveling measures the erase-spread vs. extra-migration
// trade-off of static wear leveling.
func BenchmarkWearLeveling(b *testing.B) {
	e := benchScale()
	p := benchProfiles()[0]
	for _, threshold := range []int{0, 16, 64} {
		threshold := threshold
		name := "off"
		if threshold > 0 {
			name = "threshold" + itoa(threshold)
		}
		b.Run(name, func(b *testing.B) {
			var m ftl.Metrics
			var spread int
			for i := 0; i < b.N; i++ {
				var dev *ftl.Device
				m, dev = runReturningDevice(b, p, e, func(c *ftl.Config) { c.WearLevelThreshold = threshold })
				min, max := dev.EraseSpread()
				spread = max - min
			}
			b.ReportMetric(float64(spread), "erase-spread")
			b.ReportMetric(float64(m.WearLevelMoves), "WL-moves")
			b.ReportMetric(m.WriteAmplification(), "WA")
		})
	}
}

// BenchmarkHotnessOrdering compares the paper's exact average-recency
// page-level ordering (§4.2) with the conventional LRU approximation.
func BenchmarkHotnessOrdering(b *testing.B) {
	e := benchScale()
	p := benchProfiles()[0]
	for _, h := range []core.Hotness{core.HotnessLRU, core.HotnessAvg} {
		h := h
		name := "LRU"
		if h == core.HotnessAvg {
			name = "AvgRecency"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig(0)
			cfg.Hotness = h
			var r *sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = sim.Run(sim.Options{
					Scheme: sim.SchemeTPFTL, TPFTL: &cfg, Profile: p,
					Requests: e.Requests, Seed: e.Seed,
					ResetAfterWarmup: e.Warmup, Precondition: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.M.Hr()*100, "Hr-%")
			b.ReportMetric(r.M.Prd()*100, "Prd-%")
		})
	}
}

// BenchmarkZFTL runs the §2.2 zone-based baseline alongside TPFTL.
func BenchmarkZFTL(b *testing.B) {
	e := benchScale()
	p := benchProfiles()[0]
	for _, s := range []sim.Scheme{sim.SchemeZFTL, sim.SchemeTPFTL} {
		s := s
		b.Run(string(s), func(b *testing.B) {
			var r *sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = sim.Run(sim.Options{
					Scheme: s, Profile: p, Requests: e.Requests, Seed: e.Seed,
					ResetAfterWarmup: e.Warmup, Precondition: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.M.Hr()*100, "Hr-%")
			b.ReportMetric(float64(r.M.TransWrites()), "transWrites")
		})
	}
}

// BenchmarkDataBuffer measures how a CFLRU data buffer in front of TPFTL
// absorbs device writes (§2.1's data-buffer role of the internal RAM).
func BenchmarkDataBuffer(b *testing.B) {
	p := benchProfiles()[0]
	reqs, err := workload.Generate(p, 20_000, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, pages := range []int{1, 256, 1024} {
		pages := pages
		b.Run("pages"+itoa(pages), func(b *testing.B) {
			var devWrites int64
			for i := 0; i < b.N; i++ {
				cfg := ftl.DefaultConfig(p.AddressSpace)
				tr := core.New(core.DefaultConfig(cfg.CacheBytes))
				dev, err := ftl.NewDevice(cfg, tr)
				if err != nil {
					b.Fatal(err)
				}
				if err := dev.Format(); err != nil {
					b.Fatal(err)
				}
				buf, err := buffer.New(dev, buffer.Config{Pages: pages})
				if err != nil {
					b.Fatal(err)
				}
				if err := buf.Run(reqs); err != nil {
					b.Fatal(err)
				}
				if err := buf.Flush(reqs[len(reqs)-1].Arrival); err != nil {
					b.Fatal(err)
				}
				devWrites = dev.Metrics().PageWrites
			}
			b.ReportMetric(float64(devWrites), "devWrites")
		})
	}
}

// runWithDeviceConfig builds a TPFTL device with a mutated config, runs the
// bench workload and returns the metrics.
func runWithDeviceConfig(b *testing.B, p workload.Profile, e sim.ExpConfig, mut func(*ftl.Config)) ftl.Metrics {
	m, _ := runReturningDevice(b, p, e, mut)
	return m
}

func runReturningDevice(b *testing.B, p workload.Profile, e sim.ExpConfig, mut func(*ftl.Config)) (ftl.Metrics, *ftl.Device) {
	b.Helper()
	cfg := ftl.DefaultConfig(p.AddressSpace)
	if mut != nil {
		mut(&cfg)
	}
	tr := core.New(core.DefaultConfig(cfg.CacheBytes))
	dev, err := ftl.NewDevice(cfg, tr)
	if err != nil {
		b.Fatal(err)
	}
	if err := dev.Format(); err != nil {
		b.Fatal(err)
	}
	foot := p.FootprintBytes() / int64(cfg.PageSize)
	if err := dev.PreconditionRange(int(foot), foot, e.Seed+1); err != nil {
		b.Fatal(err)
	}
	dev.ResetMetrics()
	reqs, err := workload.Generate(p, e.Requests, e.Seed)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range reqs {
		if _, err := dev.Serve(r); err != nil {
			b.Fatal(err)
		}
	}
	return dev.Metrics(), dev
}

// BenchmarkCrashRecovery measures the mount-time full-metadata scan that
// rebuilds the complete mapping after power failure (§1's power-failure
// motivation for small RAM state).
func BenchmarkCrashRecovery(b *testing.B) {
	e := benchScale()
	p := benchProfiles()[0]
	_, dev := runReturningDevice(b, p, e, nil)
	b.ResetTimer()
	var scanned int64
	for i := 0; i < b.N; i++ {
		rs, err := dev.RecoverMapping()
		if err != nil {
			b.Fatal(err)
		}
		scanned = rs.ScannedPages
	}
	b.ReportMetric(float64(scanned), "scannedPages")
}
