package ftl_test

// Tests for the fault-tolerant chip access: the first attempt of a flash
// operation is a direct chip call, and only a failure enters the retry loop.
// These pin what the loop must keep: the penalty accounting of an absorbed
// transient fault, the identity of errors it must not touch, and — over a
// seeded probabilistic plan — every counter and the event hash.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
)

// TestAbsorbedFaultCostsNominalPlusLatency: one transient fault absorbed by
// one retry charges the failed attempt's nominal latency on top of the
// successful attempt's, to the response time and — inside GC — to GCTime.
func TestAbsorbedFaultCostsNominalPlusLatency(t *testing.T) {
	cfg := testConfig()
	for _, tc := range []struct {
		op      string
		serve   func(d *ftl.Device) (time.Duration, error)
		nominal time.Duration
	}{
		{"read", func(d *ftl.Device) (time.Duration, error) { return d.Serve(rd(0, 9)) }, 25 * time.Microsecond},
		{"program", func(d *ftl.Device) (time.Duration, error) { return d.Serve(wr(0, 9)) }, 200 * time.Microsecond},
	} {
		t.Run(tc.op, func(t *testing.T) {
			// The optimal FTL translates from RAM, so the request is
			// exactly one chip operation.
			d, _ := newOptimalDevice(t, cfg)
			d.Chip().SetFaultPlan(&flash.FaultPlan{FailAt: map[string][]int64{tc.op: {1}}})
			resp, err := tc.serve(d)
			if err != nil {
				t.Fatal(err)
			}
			if want := 2 * tc.nominal; resp != want {
				t.Fatalf("response %v, want nominal + latency = %v", resp, want)
			}
			if m := d.Metrics(); m.InjectedFaults != 1 || m.FaultRetries != 1 || m.ResponseTime != resp {
				t.Fatalf("injected %d / retried %d / response sum %v, want 1 / 1 / %v",
					m.InjectedFaults, m.FaultRetries, m.ResponseTime, resp)
			}
		})
	}

	t.Run("erase in GC", func(t *testing.T) {
		// Twin devices serve the same overwrites, spaced so far apart that
		// no request queues behind another; one absorbs a fault on its
		// first erase. The difference is one erase latency, in GCTime and
		// in the summed response time alike.
		run := func(plan *flash.FaultPlan) ftl.Metrics {
			d, _ := newOptimalDevice(t, cfg)
			d.Chip().SetFaultPlan(plan)
			for i := int64(0); d.Metrics().GCDataCollections == 0; i++ {
				if i > 100000 {
					t.Fatal("GC never ran")
				}
				if _, err := d.Serve(wr(i*int64(time.Second), i%512)); err != nil {
					t.Fatal(err)
				}
			}
			return d.Metrics()
		}
		clean := run(&flash.FaultPlan{})
		faulty := run(&flash.FaultPlan{FailAt: map[string][]int64{"erase": {1}}})
		if faulty.InjectedFaults != 1 || faulty.FaultRetries != 1 {
			t.Fatalf("injected %d / retried %d, want 1 / 1", faulty.InjectedFaults, faulty.FaultRetries)
		}
		const eraseLat = 1500 * time.Microsecond
		if got := faulty.GCTime - clean.GCTime; got != eraseLat {
			t.Fatalf("GCTime grew by %v, want the failed erase's %v", got, eraseLat)
		}
		if got := faulty.ResponseTime - clean.ResponseTime; got != eraseLat {
			t.Fatalf("response time grew by %v, want the failed erase's %v", got, eraseLat)
		}
	})
}

// TestUnretryableErrorsSurfaceOnFirstAttempt: an error that is not a
// transient injected fault comes back as the very value the chip returned,
// after exactly one attempt.
func TestUnretryableErrorsSurfaceOnFirstAttempt(t *testing.T) {
	boom := errors.New("injected")
	permanent := &flash.FaultError{Op: "program", Page: -1, Blk: -1}
	for _, tc := range []struct {
		name     string
		arm      func(c *flash.Chip)
		want     error
		injected int64
	}{
		{"plain error", func(c *flash.Chip) { c.FailNext("program", boom) }, boom, 0},
		{"permanent fault", func(c *flash.Chip) { c.FailNext("program", permanent) }, permanent, 1},
		{"power cut", func(c *flash.Chip) { c.SetFaultPlan(&flash.FaultPlan{CutAtOp: 1}) }, flash.ErrPowerCut, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := newOptimalDevice(t, testConfig())
			tc.arm(d.Chip())
			// A second queued failure would be consumed by a second
			// attempt; it must still be there afterwards.
			sentinel := errors.New("second attempt")
			d.Chip().FailNext("program", sentinel)
			before := d.Chip().Stats()
			_, err := d.Serve(wr(0, 3))
			if err != tc.want {
				t.Fatalf("err = %v, want the chip's own %v", err, tc.want)
			}
			m := d.Metrics()
			if m.InjectedFaults != tc.injected || m.FaultRetries != 0 {
				t.Fatalf("injected %d / retried %d, want %d / 0", m.InjectedFaults, m.FaultRetries, tc.injected)
			}
			if d.Chip().Stats() != before {
				t.Fatalf("chip stats moved from %+v to %+v on a failed program", before, d.Chip().Stats())
			}
			if tc.want == flash.ErrPowerCut {
				return // a cut chip answers every later op with the cut, queue untouched
			}
			if _, err := d.Serve(wr(0, 3)); err != sentinel {
				t.Fatalf("next program returned %v, want the still-queued %v", err, sentinel)
			}
		})
	}
}

// TestSeededFaultPlanGolden replays a seeded write/FUA/read/trim/flush
// sequence through TPFTL under a probabilistic read/program/erase fault
// plan. Metrics and the scheduler's event hash are pinned to the values the
// closure-per-operation retryOp produced: the retry loop draws from the
// plan's RNG once per attempt, so one retry more or fewer anywhere shifts
// every later fault. The metrics word was re-taken once, when Metrics lost
// its second response histogram: the hashed %+v string is the old one with
// that field cut out, and the other nine components did not move.
func TestSeededFaultPlanGolden(t *testing.T) {
	cfg := tpopsConfig(16 * 128)
	d := newTPOpsDevice(t, cfg, core.New(core.DefaultConfig(cfg.CacheBytes)), true)
	d.Chip().SetFaultPlan(&flash.FaultPlan{Seed: 7, ReadProb: 0.02, ProgramProb: 0.02, EraseProb: 0.05})
	rng := rand.New(rand.NewSource(19))
	for i := int64(0); i < 6000; i++ {
		if _, err := d.Serve(randomHostOp(rng, cfg.LogicalPages(), i*300_000)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	m := d.Metrics()
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", m)
	got := fmt.Sprintf("faults %d retries %d reads %d programs %d erases %d gc %v resp %v metrics %#x events %#x",
		m.InjectedFaults, m.FaultRetries, m.FlashReads, m.FlashPrograms, m.FlashErases,
		m.GCTime, m.ResponseTime, h.Sum64(), d.Scheduler().EventHash())
	const want = "faults 493 retries 493 reads 9157 programs 12514 erases 769 gc 1.227s resp 1h49m31.491825s metrics 0x6bd2e82b5957bbd4 events 0xd642dcc87abd8561"
	if got != want {
		t.Fatalf("seeded fault run drifted:\n got %s\nwant %s", got, want)
	}
	if st := d.Chip().FaultStats(); st.Injected() != m.InjectedFaults {
		t.Fatalf("chip injected %d faults, device observed %d", st.Injected(), m.InjectedFaults)
	}
	if err := d.VerifyRecoverable(); err != nil {
		t.Fatal(err)
	}
}
