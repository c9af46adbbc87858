package sim

// Tests for what runs concurrently around the replay: per-shard set-up and
// teardown (perShard) and the figure sweeps (runAll). Results must not depend
// on how many cores there are; `make race` runs this file at -cpu 1,2,4 too.

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/flash"
	"repro/internal/workload"
)

// atGOMAXPROCS runs f with GOMAXPROCS set to n and restores the old value.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// goroutineID reads the calling goroutine's id off its stack header
// ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestShardedRunIndependentOfGOMAXPROCS: four shards, each preconditioned,
// warmed up and checked on its own goroutine, give the same Result — Digest,
// every shard's EventHash and metrics — on one core as on four.
func TestShardedRunIndependentOfGOMAXPROCS(t *testing.T) {
	run := func(procs int) *Result {
		var r *Result
		atGOMAXPROCS(procs, func() {
			o := streamTestOptions(SchemeTPFTL)
			o.Shards = 4
			o.Precondition = 1
			o.QueueDepth = 8
			o.Channels, o.Dies = 2, 2
			var err error
			if r, err = Run(o); err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
		})
		return r
	}
	one, four := run(1), run(4)
	if len(one.Shards) != 4 || one.Digest == 0 {
		t.Fatalf("%d shard results, digest %#x", len(one.Shards), one.Digest)
	}
	if one.Digest != four.Digest {
		t.Errorf("Digest %#x on one core, %#x on four", one.Digest, four.Digest)
	}
	for s := range one.Shards {
		if a, b := one.Shards[s], four.Shards[s]; a.EventHash != b.EventHash || a.M != b.M {
			t.Errorf("shard %d: EventHash %#x / %#x, metrics equal: %v", s, a.EventHash, b.EventHash, a.M == b.M)
		}
		if one.Shards[s].M.GCDataCollections == 0 {
			t.Errorf("shard %d never collected: the preconditioned steady state is not being exercised", s)
		}
	}
	if !reflect.DeepEqual(one, four) {
		t.Errorf("the two Results differ (M equal: %v, TraceStats equal: %v)", one.M == four.M, one.TraceStats == four.TraceStats)
	}
}

// TestOneShardRunIndependentOfGOMAXPROCS: one preconditioned, warmed-up
// device gives the same whole Result — metrics, Digest, the shard's
// EventHash, trace statistics and cache samples — on one core as on two and
// four, in every admission mode, with an absorbed fault plan and with cache
// sampling attached.
func TestOneShardRunIndependentOfGOMAXPROCS(t *testing.T) {
	type tc struct {
		name string
		mod  func(*Options)
	}
	var cases []tc
	for _, s := range []Scheme{SchemeTPFTL, SchemeDFTL} {
		for _, adm := range []tc{
			{"qd1", func(o *Options) {}},
			{"qd8", func(o *Options) { o.QueueDepth = 8; o.Channels, o.Dies = 4, 2 }},
			{"openloop", func(o *Options) { o.OpenLoop = true; o.Channels, o.Dies = 2, 2 }},
		} {
			cases = append(cases, tc{string(s) + "/" + adm.name, func(o *Options) { o.Scheme = s; adm.mod(o) }})
		}
	}
	cases = append(cases,
		tc{"TPFTL/faults", func(o *Options) {
			o.QueueDepth = 4
			o.Channels = 2
			o.Faults = &flash.FaultPlan{Seed: 5, ReadProb: 0.002, ProgramProb: 0.002}
		}},
		tc{"TPFTL/samples", func(o *Options) { o.SampleEvery = 500 }},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var res [3]*Result
			for i, procs := range []int{1, 2, 4} {
				atGOMAXPROCS(procs, func() {
					o := streamTestOptions(SchemeTPFTL)
					// Small enough for the ftlsan build's per-request
					// whole-device checks to finish in seconds.
					o.AddressSpace = 16 << 20
					o.Requests = 2_000
					o.ResetAfterWarmup = 200
					o.Precondition = 1
					c.mod(&o)
					var err error
					if res[i], err = Run(o); err != nil {
						t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
					}
				})
			}
			if res[0].M.Requests == 0 || len(res[0].Shards) != 1 || res[0].Digest == 0 {
				t.Fatalf("%d requests, %d shard results, digest %#x", res[0].M.Requests, len(res[0].Shards), res[0].Digest)
			}
			if c.name == "TPFTL/faults" && (res[0].M.FaultRetries == 0 || res[0].M.FaultRetries != res[0].M.InjectedFaults) {
				t.Fatalf("%d faults injected, %d retried: the plan must fire and be absorbed", res[0].M.InjectedFaults, res[0].M.FaultRetries)
			}
			if c.name == "TPFTL/samples" && len(res[0].Samples) < 3 {
				t.Fatalf("%d cache samples", len(res[0].Samples))
			}
			for i, procs := range []int{2, 4} {
				got := res[i+1]
				if got.Shards[0].EventHash != res[0].Shards[0].EventHash || got.Digest != res[0].Digest {
					t.Errorf("GOMAXPROCS=%d: EventHash %#x, digest %#x; at 1: %#x, %#x",
						procs, got.Shards[0].EventHash, got.Digest, res[0].Shards[0].EventHash, res[0].Digest)
				}
				if !reflect.DeepEqual(got, res[0]) {
					t.Errorf("GOMAXPROCS=%d: Result differs from GOMAXPROCS=1 (M equal: %v, TraceStats equal: %v, samples equal: %v)",
						procs, got.M == res[0].M, got.TraceStats == res[0].TraceStats, reflect.DeepEqual(got.Samples, res[0].Samples))
				}
			}
		})
	}
}

func TestPerShard(t *testing.T) {
	caller := goroutineID()
	var ran string
	if err := perShard(1, func(s int) error { ran = goroutineID(); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != caller {
		t.Errorf("one shard ran on goroutine %s, the caller is %s", ran, caller)
	}

	var ids [5]string
	err := perShard(len(ids), func(s int) error {
		ids[s] = goroutineID()
		if s == 1 || s == 3 {
			return fmt.Errorf("shard %d failed", s)
		}
		return nil
	})
	if err == nil || err.Error() != "shard 1 failed" {
		t.Errorf("shards 1 and 3 failed: got %v, want shard 1's error", err)
	}
	seen := map[string]bool{caller: true}
	for s, id := range ids {
		if id == "" || seen[id] {
			t.Errorf("shard %d ran on goroutine %q: not run, or not a goroutine of its own", s, id)
		}
		seen[id] = true
	}
}

// TestRunAllFirstErrorInLoopOrder: a sweep reports what the serial loop it
// replaced would have — the failure of the first run, in opts order, that
// fails — however many workers race through the list.
func TestRunAllFirstErrorInLoopOrder(t *testing.T) {
	opts := make([]Options, 8)
	for i := range opts {
		opts[i] = Options{Scheme: SchemeDFTL, Profile: workload.Financial1().Scale(16 << 20), Requests: 200, Seed: 1}
	}
	opts[2].Scheme, opts[5].Scheme = "bad-2", "bad-5"
	for _, procs := range []int{1, 4} {
		atGOMAXPROCS(procs, func() {
			res, err := runAll(opts)
			if res != nil || err == nil || !strings.Contains(err.Error(), `"bad-2"`) {
				t.Errorf("GOMAXPROCS=%d: got (%v, %v), want run 2's unknown-scheme error", procs, res, err)
			}
		})
	}
	res, err := runAll(opts[:2])
	if err != nil || len(res) != 2 || res[0] == nil || res[1] == nil {
		t.Errorf("two good runs: got (%v, %v)", res, err)
	}
	if res, err := runAll(nil); err != nil || len(res) != 0 {
		t.Errorf("no runs: got (%v, %v)", res, err)
	}
}

// TestSweepsIndependentOfGOMAXPROCS: the comparison and the cache sweep give
// the same cells on one worker as on four, in the order of the loops that
// list their runs, whatever finished first.
func TestSweepsIndependentOfGOMAXPROCS(t *testing.T) {
	e := ExpConfig{Requests: 1_500, MSRScale: 32 << 20, Seed: 7, Warmup: 150}
	var comparison [2][]ComparisonCell
	var sweep [2][]SweepCell
	for i, procs := range []int{1, 4} {
		atGOMAXPROCS(procs, func() {
			var err error
			if comparison[i], err = e.RunComparison(); err != nil {
				t.Fatalf("comparison, GOMAXPROCS=%d: %v", procs, err)
			}
			if sweep[i], err = e.RunCacheSweep(); err != nil {
				t.Fatalf("cache sweep, GOMAXPROCS=%d: %v", procs, err)
			}
		})
	}
	if !reflect.DeepEqual(comparison[0], comparison[1]) {
		t.Errorf("comparison cells differ:\n one  %+v\n four %+v", comparison[0], comparison[1])
	}
	if !reflect.DeepEqual(sweep[0], sweep[1]) {
		t.Errorf("cache sweep cells differ:\n one  %+v\n four %+v", sweep[0], sweep[1])
	}
	profiles := e.Defaults().profiles()
	if got, want := len(comparison[1]), len(profiles)*len(Schemes()); got != want {
		t.Fatalf("comparison: %d cells, want %d", got, want)
	}
	if got, want := len(sweep[1]), len(profiles)*len(SweepFractions()); got != want {
		t.Fatalf("cache sweep: %d cells, want %d", got, want)
	}
	for i, p := range profiles {
		for j, s := range Schemes() {
			if c := comparison[1][i*len(Schemes())+j]; c.Workload != p.Name || c.Scheme != s {
				t.Errorf("comparison cell (%d,%d) is %s/%s, want %s/%s", i, j, c.Workload, c.Scheme, p.Name, s)
			}
		}
		for j, f := range SweepFractions() {
			if c := sweep[1][i*len(SweepFractions())+j]; c.Workload != p.Name || c.Fraction != f {
				t.Errorf("cache sweep cell (%d,%d) is %s at %v, want %s at %v", i, j, c.Workload, c.Fraction, p.Name, f)
			}
		}
	}
}
