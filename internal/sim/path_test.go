package sim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/flash"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRequestPathEquivalence pins that Run has one request path: whichever
// form the requests arrive in (generated from the profile, an in-memory
// Trace, or a TraceStream pulled in odd-sized batches) the whole Result is
// the same, at every shard count and in every admission mode — and Shards 0
// and 1 are the same run.
func TestRequestPathEquivalence(t *testing.T) {
	base := streamTestOptions(SchemeTPFTL)
	reqs, err := workload.Generate(base.Profile, base.Requests, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		mod  func(*Options)
	}{
		{"generated", func(o *Options) {}},
		{"trace", func(o *Options) { o.Trace = reqs; o.StreamBatch = 509 }},
		{"stream", func(o *Options) { o.TraceStream = trace.NewSliceIterator(reqs); o.StreamBatch = 333 }},
	}
	admissions := []struct {
		name string
		mod  func(*Options)
	}{
		{"qd1", func(o *Options) {}},
		{"qd8", func(o *Options) { o.QueueDepth = 8; o.Channels = 4; o.Dies = 2 }},
		{"openloop", func(o *Options) { o.OpenLoop = true }},
	}
	for _, adm := range admissions {
		adm := adm
		t.Run(adm.name, func(t *testing.T) {
			t.Parallel()
			var oneDevice *Result // the Shards: 0 result, to hold Shards: 1 against
			for _, shards := range []int{0, 1, 2} {
				var ref *Result
				for _, src := range sources {
					o := streamTestOptions(SchemeTPFTL)
					o.Shards = shards
					o.Clients = 3
					adm.mod(&o)
					src.mod(&o)
					r, err := Run(o)
					if err != nil {
						t.Fatalf("shards=%d %s: %v", shards, src.name, err)
					}
					if len(r.Shards) != max(shards, 1) || r.Digest == 0 || r.Digest != hostDigest(r) {
						t.Fatalf("shards=%d %s: %d shard results, digest %#x (folded hashes %#x)",
							shards, src.name, len(r.Shards), r.Digest, hostDigest(r))
					}
					if ref == nil {
						ref = r
					} else if !reflect.DeepEqual(r, ref) {
						t.Errorf("shards=%d: %s result diverges from %s:\n got  %+v\n want %+v",
							shards, src.name, sources[0].name, r, ref)
					}
				}
				switch shards {
				case 0:
					oneDevice = ref
				case 1:
					if !reflect.DeepEqual(ref, oneDevice) {
						t.Errorf("Shards: 1 diverges from Shards: 0:\n got  %+v\n want %+v", ref, oneDevice)
					}
					if !reflect.DeepEqual(ref.Shards[0].M, ref.M) {
						t.Errorf("the single shard's metrics are not the run's")
					}
				}
			}
		})
	}
}

// TestPerDeviceOptionsAtOneShard pins that cache sampling, the observability
// exports and fault plans — all per-device — work whenever there is one
// device, Shards: 1 exactly like Shards: 0, and keep their rejection at two.
func TestPerDeviceOptionsAtOneShard(t *testing.T) {
	type outcome struct {
		res            *Result
		metrics, trace string
	}
	cases := []struct {
		name string
		mod  func(*Options)
		ok   func(*testing.T, outcome)
	}{
		{"sampling", func(o *Options) { o.SampleEvery = 1_000 }, func(t *testing.T, out outcome) {
			if len(out.res.Samples) < 5 {
				t.Fatalf("%d samples", len(out.res.Samples))
			}
		}},
		{"export", func(o *Options) { o.MetricsInterval = 700 }, func(t *testing.T, out outcome) {
			if out.metrics == "" || out.trace == "" {
				t.Fatalf("exports empty: %d B of metrics, %d B of trace", len(out.metrics), len(out.trace))
			}
		}},
		{"faults", func(o *Options) {
			o.Faults = &flash.FaultPlan{Seed: 11, ReadProb: 0.001, ProgramProb: 0.001, EraseProb: 0.001}
		}, func(t *testing.T, out outcome) {
			if out.res.M.InjectedFaults == 0 {
				t.Fatal("no faults injected; the plan was not armed")
			}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			run := func(shards int) (outcome, error) {
				var metricsBuf, traceBuf bytes.Buffer
				o := streamTestOptions(SchemeDFTL)
				o.Shards = shards
				c.mod(&o)
				if o.MetricsInterval > 0 {
					o.MetricsOut, o.TraceOut = &metricsBuf, &traceBuf
				}
				r, err := Run(o)
				return outcome{r, metricsBuf.String(), traceBuf.String()}, err
			}
			zero, err := run(0)
			if err != nil {
				t.Fatalf("Shards: 0: %v", err)
			}
			c.ok(t, zero)
			one, err := run(1)
			if err != nil {
				t.Fatalf("Shards: 1: %v", err)
			}
			if !reflect.DeepEqual(one, zero) {
				t.Errorf("Shards: 1 diverges from Shards: 0:\n got  %+v\n want %+v", one.res, zero.res)
			}
			if _, err := run(2); err == nil || !strings.Contains(err.Error(), "not supported with Shards") {
				t.Errorf("Shards: 2 accepted a per-device option (err = %v)", err)
			}
		})
	}
}

// TestDeviceErrorSurfacesWithIndex pins what a failing run reports: the
// failing request's index in the measured phase and the device's own error,
// still recognisable through every layer's wrapping.
func TestDeviceErrorSurfacesWithIndex(t *testing.T) {
	base := streamTestOptions(SchemeTPFTL)
	reqs, err := workload.Generate(base.Profile, base.Requests, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	// Requests are served in order, so a run limited to the first n requests
	// fails exactly when n exceeds the index of the request the cut lands in.
	cut := func(n int) error {
		o := base
		o.ResetAfterWarmup = 0
		o.TraceStream = trace.Limit(trace.NewSliceIterator(reqs), int64(n))
		o.StreamBatch = 7
		o.Faults = &flash.FaultPlan{Seed: 9, CutAtOp: 400}
		_, err := Run(o)
		return err
	}
	if cut(len(reqs)) == nil {
		t.Fatal("the power cut never fired")
	}
	failing := sort.Search(len(reqs), func(i int) bool { return cut(i+1) != nil })
	err = cut(len(reqs))
	if !errors.Is(err, flash.ErrPowerCut) {
		t.Fatalf("errors.Is(err, flash.ErrPowerCut) is false for %v", err)
	}
	if want := fmt.Sprintf("request %d:", failing); !strings.Contains(err.Error(), want) {
		t.Fatalf("error does not name %q: %v", want, err)
	}
}
