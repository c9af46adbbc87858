package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ftl"
	"repro/internal/trace"
)

// TestQuickRandomConfigurations drives arbitrary TPFTL configurations
// (technique subsets, budgets, hotness orderings) through short random
// workloads, checking the structural invariants and the device's
// live/persist consistency after every run. Arguments are generated by
// testing/quick.
func TestQuickRandomConfigurations(t *testing.T) {
	f := func(seed int64, toggles uint8, budgetRaw uint16, hotAvg bool) bool {
		cfg := Config{
			CacheBytes:        int64(budgetRaw%2048) + 32,
			RequestPrefetch:   toggles&1 != 0,
			SelectivePrefetch: toggles&2 != 0,
			BatchUpdate:       toggles&4 != 0,
			CleanFirst:        toggles&8 != 0,
			CompressEntries:   toggles&16 != 0,
		}
		if hotAvg {
			cfg.Hotness = HotnessAvg
		}
		tr := New(cfg)
		d, err := ftl.NewDevice(ftl.Config{
			LogicalBytes:  8 << 20, // 2048 pages, 2 translation pages
			PageSize:      4096,
			PagesPerBlock: 32,
			OverProvision: 0.2,
			CacheBytes:    cfg.CacheBytes,
		}, tr)
		if err != nil {
			t.Log(err)
			return false
		}
		if err := d.Format(); err != nil {
			t.Log(err)
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		arrival := int64(0)
		for i := 0; i < 400; i++ {
			page := int64(rng.Intn(2048))
			n := int64(1 + rng.Intn(5))
			if page+n > 2048 {
				n = 2048 - page
			}
			arrival += int64(rng.Intn(500_000))
			req := trace.Request{
				Arrival: arrival, Offset: page * 4096, Length: n * 4096,
				Op: opOf(rng.Intn(2) == 0),
			}
			if _, err := d.Serve(req); err != nil {
				t.Logf("cfg %q: %v", cfg.VariantName(), err)
				return false
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("cfg %q: %v", cfg.VariantName(), err)
			return false
		}
		if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
			t.Logf("cfg %q: %v", cfg.VariantName(), err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBudgetNeverExceeded: whatever the operation sequence, the charged
// cache usage stays within the configured budget (after New's minimum
// clamp).
func TestQuickBudgetNeverExceeded(t *testing.T) {
	f := func(seed int64, budgetRaw uint16) bool {
		budget := int64(budgetRaw%1024) + 40
		tr := New(DefaultConfig(budget))
		d, err := ftl.NewDevice(ftl.Config{
			LogicalBytes:  8 << 20,
			PageSize:      4096,
			PagesPerBlock: 32,
			OverProvision: 0.2,
			CacheBytes:    budget,
		}, tr)
		if err != nil {
			return false
		}
		if err := d.Format(); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		arrival := int64(0)
		for i := 0; i < 300; i++ {
			page := int64(rng.Intn(2048))
			arrival += 200_000
			req := trace.Request{Arrival: arrival, Offset: page * 4096, Length: 4096, Op: opOf(rng.Intn(3) > 0)}
			if _, err := d.Serve(req); err != nil {
				return false
			}
			if tr.UsedBytes() > tr.cfg.CacheBytes {
				t.Logf("used %d exceeds budget %d", tr.UsedBytes(), tr.cfg.CacheBytes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSelectiveCounterBounded: the selective-prefetch counter is reset
// whenever it reaches ±threshold, so its absolute value never exceeds the
// threshold.
func TestQuickSelectiveCounterBounded(t *testing.T) {
	f := func(deltas []bool) bool {
		tr := New(Config{CacheBytes: 1 << 12, SelectivePrefetch: true})
		for _, up := range deltas {
			d := 1
			if !up {
				d = -1
			}
			tr.stepCounter(d)
			if tr.counter >= tr.threshold || tr.counter <= -tr.threshold {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func opOf(write bool) trace.Op {
	if write {
		return trace.OpWrite
	}
	return trace.OpRead
}
