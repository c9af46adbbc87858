package sim

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/obstest"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scrapeHard hammers every observer surface of the plane from several
// goroutines until stop closes: the Prometheus writer, the JSON writer, and
// the HTTP mux end to end. Run under -race this is the proof that scrapes
// never race the simulation.
func scrapeHard(t *testing.T, p *live.Plane, stop <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	srv := httptest.NewServer(live.NewMux(p, nil))
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				live.WritePrometheus(io.Discard, p)
				live.WriteJSON(io.Discard, p)
				resp, err := srv.Client().Get(srv.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err = srv.Client().Get(srv.URL + "/snapshot")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		srv.Close()
	}()
	return &wg
}

// TestTelemetryScrapeEquivalence is the plane's core contract: a run scraped
// concurrently over every surface produces bit-for-bit the metrics, digest,
// per-shard event hashes and queue stats of the same run with telemetry off —
// across the serial path, the sharded host, and sharded streamed replay.
func TestTelemetryScrapeEquivalence(t *testing.T) {
	base := streamTestOptions(SchemeTPFTL)
	reqs, err := workload.Generate(base.Profile, base.Requests, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	path := writeBinaryTrace(t, reqs)

	modes := []struct {
		name string
		mod  func(*testing.T, *Options)
	}{
		{"serial-qd8", func(_ *testing.T, o *Options) {
			o.Trace = reqs
			o.QueueDepth = 8
			o.Channels = 4
			o.Dies = 2
		}},
		{"shards2", func(_ *testing.T, o *Options) {
			o.Trace = reqs
			o.Shards = 2
			o.Clients = 4
			o.QueueDepth = 8
		}},
		{"shards2-streamed", func(t *testing.T, o *Options) {
			s, err := trace.OpenBinary(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			o.TraceStream = s
			o.StreamBatch = 509
			o.Shards = 2
			o.Clients = 4
			o.QueueDepth = 8
		}},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			off := streamTestOptions(SchemeTPFTL)
			mode.mod(t, &off)
			want, err := Run(off)
			if err != nil {
				t.Fatalf("telemetry off: %v", err)
			}

			on := streamTestOptions(SchemeTPFTL)
			mode.mod(t, &on)
			plane := live.NewPlane(64, 32) // tight cadence: many epochs under scrape fire
			on.Telemetry = plane
			stop := make(chan struct{})
			wg := scrapeHard(t, plane, stop)
			got, err := Run(on)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatalf("telemetry on: %v", err)
			}

			if !reflect.DeepEqual(got, want) {
				t.Errorf("telemetry-on result diverges from telemetry-off:\n got  %+v\n want %+v", got, want)
			}

			// The final exposition must validate and a re-scrape must be
			// monotonic over it (the run is done, so counters are frozen).
			var one, two bytes.Buffer
			if err := live.WritePrometheus(&one, plane); err != nil {
				t.Fatal(err)
			}
			prev, err := obstest.ValidatePrometheus(strings.NewReader(one.String()))
			if err != nil {
				t.Fatalf("final scrape invalid: %v", err)
			}
			if err := live.WritePrometheus(&two, plane); err != nil {
				t.Fatal(err)
			}
			cur, err := obstest.ValidatePrometheus(strings.NewReader(two.String()))
			if err != nil {
				t.Fatal(err)
			}
			if err := obstest.CheckCounterMonotonic(prev, cur); err != nil {
				t.Fatalf("post-run scrapes not monotonic: %v", err)
			}
			if plane.Requests() == 0 {
				t.Fatal("plane saw no requests; telemetry was never attached")
			}

			// The flight recorder must hold a validating tail of the run.
			var dump bytes.Buffer
			if err := plane.DumpRecorders(&dump); err != nil {
				t.Fatal(err)
			}
			n, err := obstest.ValidateRecorderDump(strings.NewReader(dump.String()))
			if err != nil {
				t.Fatalf("recorder dump invalid: %v\n%s", err, dump.String())
			}
			if n == 0 {
				t.Fatal("recorder dump holds no records")
			}
		})
	}
}

// TestTelemetryCrashDumpOnFailure pins the post-mortem path: a run killed by
// an injected power cut leaves the flight recorder holding the final admitted
// requests — including the one that failed — and the dump validates.
func TestTelemetryCrashDumpOnFailure(t *testing.T) {
	plane := live.NewPlane(0, 16)
	_, err := Run(Options{
		Scheme:    SchemeTPFTL,
		Profile:   smallProfile(workload.Financial1()),
		Requests:  3_000,
		Seed:      5,
		Telemetry: plane,
		Faults:    &flash.FaultPlan{Seed: 9, CutAtOp: 400},
	})
	if err == nil {
		t.Fatal("power-cut run succeeded; fault plan was not armed")
	}

	var dump bytes.Buffer
	if err := plane.DumpRecorders(&dump); err != nil {
		t.Fatal(err)
	}
	n, verr := obstest.ValidateRecorderDump(strings.NewReader(dump.String()))
	if verr != nil {
		t.Fatalf("post-mortem dump invalid: %v\n%s", verr, dump.String())
	}
	if n == 0 {
		t.Fatal("post-mortem dump holds no records")
	}
	// The failing request is recorded with a zero completion timestamp.
	if !strings.Contains(dump.String(), "complete_ns=0") {
		t.Fatalf("failing request missing from dump:\n%s", dump.String())
	}
}

// TestTelemetryOffHotPathAllocates0 guards the disabled path: with no cell
// attached, the per-request telemetry gate is one nil check and the serve
// path still performs zero heap allocations.
func TestTelemetryOffHotPathAllocates0(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	space := int64(1 << 20)
	cfg := ftl.DefaultConfig(space)
	cfg.CacheBytes = ftl.DefaultCacheBytes(space)
	dev, err := ftl.NewDevice(cfg, core.New(core.DefaultConfig(cfg.CacheBytes)))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Format(); err != nil {
		t.Fatal(err)
	}
	read := func(arrival int64) trace.Request {
		return trace.Request{Arrival: arrival, Offset: 5 * 4096, Length: 4096}
	}
	if _, err := dev.Serve(trace.Request{Offset: 5 * 4096, Length: 4096, Op: trace.OpWrite}); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Serve(read(1)); err != nil {
		t.Fatal(err)
	}
	arrival := int64(2)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := dev.Serve(read(arrival)); err != nil {
			t.Fatal(err)
		}
		arrival++
	})
	if allocs != 0 {
		t.Fatalf("telemetry-off serve allocates %v times per op, want 0", allocs)
	}
}

// TestMetricsFileAndPlaneAgree attaches both epoch sinks to one run: the
// -metrics-out file must be byte-identical to the same run's without the
// plane (the warm-up fold must not leak into the file), and the plane's last
// epoch, less the warm-up's counters, must equal the file's last total and
// the run's own metrics.
func TestMetricsFileAndPlaneAgree(t *testing.T) {
	run := func(plane *live.Plane) (*Result, []byte) {
		t.Helper()
		var out bytes.Buffer
		o := goldenOptions(SchemeTPFTL)
		o.MetricsOut = &out
		o.MetricsInterval = 700
		o.Telemetry = plane
		r, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return r, out.Bytes()
	}
	_, alone := run(nil)
	plane := live.NewPlane(64, 16)
	r, both := run(plane)
	if !bytes.Equal(alone, both) {
		t.Fatalf("-metrics-out differs with the plane attached:\n--- with\n%s\n--- without\n%s", both, alone)
	}
	lines := bytes.Split(bytes.TrimSpace(both), []byte("\n"))
	var last obs.Epoch
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}

	// The warm-up is the first ResetAfterWarmup requests of the same
	// generated stream, served on the same preconditioned device.
	o := goldenOptions(SchemeTPFTL)
	o.Requests, o.ResetAfterWarmup = o.ResetAfterWarmup, 0
	warm, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	e := plane.Cells()[0].Load()
	if got := e.Total.Sub(warm.M.Counters()); got != last.Total || got != r.M.Counters() {
		t.Fatalf("plane total less the warm-up disagrees with the file and the run\nplane %+v\nfile  %+v\nrun   %+v", got, last.Total, r.M.Counters())
	}
}
