package ftl_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ftl/dftl"
	"repro/internal/trace"
)

func TestRecoverFreshFormat(t *testing.T) {
	d, _ := newOptimalDevice(t, testConfig())
	rs, err := d.RecoverMapping()
	if err != nil {
		t.Fatal(err)
	}
	if rs.ScannedPages == 0 {
		t.Fatal("nothing scanned")
	}
	if err := d.VerifyRecoverable(); err != nil {
		t.Fatal(err)
	}
	_ = rs
}

// TestRecoverAfterWorkload is the central crash-consistency property: after
// an arbitrary workload with GC, wear leveling and dirty cache entries in
// flight, a scan of nothing but the per-page OOB metadata reconstructs the
// exact live mapping — including mappings whose only record is a data
// page's own metadata because the dirty cache entry never reached a
// translation page.
func TestRecoverAfterWorkload(t *testing.T) {
	for _, scheme := range []string{"DFTL", "TPFTL"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			cfg := testConfig()
			cfg.WearLevelThreshold = 16
			var tr ftl.Translator
			if scheme == "DFTL" {
				tr = dftl.New(dftl.Config{CacheBytes: cfg.CacheBytes})
			} else {
				tr = core.New(core.DefaultConfig(cfg.CacheBytes))
			}
			d, err := ftl.NewDevice(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Format(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(21))
			arrival := int64(0)
			for i := 0; i < 15000; i++ {
				page := int64(rng.Intn(4096))
				arrival += int64(rng.Intn(100_000))
				req := trace.Request{
					Arrival: arrival, Offset: page * 4096, Length: 4096,
					Op: opOf(rng.Intn(4) > 0),
				}
				if _, err := d.Serve(req); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				// Crash at arbitrary points: recovery must always succeed.
				if i%2500 == 0 {
					if err := d.VerifyRecoverable(); err != nil {
						t.Fatalf("after op %d: %v", i, err)
					}
				}
			}
			if err := d.VerifyRecoverable(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoveryDetectsDivergence sanity-checks the checker itself: recovery
// output must really be compared against live state (a recovered map is a
// full copy, not an alias).
func TestRecoveryDetectsDivergence(t *testing.T) {
	d, _ := newOptimalDevice(t, testConfig())
	rs, err := d.RecoverMapping()
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the recovered copy must not affect the device.
	rs.Mapping[0] = 999999
	if err := d.VerifyRecoverable(); err != nil {
		t.Fatal("recovered state aliased device state")
	}
}

// TestRecoveryScanCost: the scan touches every programmed page — the mount
// cost that motivates real FTLs to journal; the count is exposed for the
// harness.
func TestRecoveryScanCost(t *testing.T) {
	d, _ := newOptimalDevice(t, testConfig())
	rs, err := d.RecoverMapping()
	if err != nil {
		t.Fatal(err)
	}
	// Freshly formatted: logical pages + translation pages programmed.
	want := d.Config().LogicalPages() + int64(d.NumTPs())
	if rs.ScannedPages != want {
		t.Fatalf("scanned %d, want %d", rs.ScannedPages, want)
	}
}
