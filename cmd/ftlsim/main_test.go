package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestObservabilityEndToEnd builds ftlsim and drives its observability flags
// the way a user does, then checks every artifact with the validators the
// in-process tests share. It pins what only the binary can show: that the
// flags reach the run, that the files it writes are the valid ones, that the
// scrape server answers while the run is in flight and lingers until POST
// /quit, and that none of it changes a byte of the report on stdout.
func TestObservabilityEndToEnd(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ftlsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ftlsim: %v\n%s", err, out)
	}
	// report runs ftlsim to completion and returns its stdout.
	report := func(t *testing.T, args ...string) []byte {
		t.Helper()
		var stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("ftlsim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		return out
	}

	t.Run("exports", func(t *testing.T) {
		dir := t.TempDir()
		metrics, spans := filepath.Join(dir, "m.jsonl"), filepath.Join(dir, "trace.json")
		report(t, "-requests", "20000", "-channels", "4", "-dies", "2", "-qd", "8",
			"-metrics-out", metrics, "-metrics-interval", "2000", "-trace-out", spans)

		n, err := validateFile(metrics, obs.ValidateMetricsJSONL)
		if err != nil {
			t.Fatalf("-metrics-out: %v", err)
		}
		if n < 2 {
			t.Fatalf("-metrics-out: %d snapshot records, want several (consecutive lines are what the delta check compares)", n)
		}
		if n, err := validateFile(spans, obs.ValidateTrace); err != nil || n == 0 {
			t.Fatalf("-trace-out: %d events, err %v", n, err)
		}
	})

	t.Run("live", func(t *testing.T) {
		const requests = 20000
		dir := t.TempDir()
		reqs, err := workload.Generate(workload.Financial1().Scale(64<<20), requests, 42)
		if err != nil {
			t.Fatal(err)
		}
		var ftr bytes.Buffer
		if err := trace.WriteBinary(&ftr, reqs); err != nil {
			t.Fatal(err)
		}
		tracePath := filepath.Join(dir, "t.ftr")
		if err := os.WriteFile(tracePath, ftr.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
		replay := []string{"-trace", tracePath, "-format", "binary", "-space", "67108864",
			"-warmup", "2000", "-shards", "2", "-clients", "4", "-qd", "8"}
		off := report(t, replay...)

		// A port the kernel just handed out is free to bind again at once.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()

		flight := filepath.Join(dir, "flight.txt")
		var on, stderr bytes.Buffer
		cmd := exec.Command(bin, append(replay, "-telemetry-addr", addr,
			"-telemetry-linger", "30s", "-recorder-out", flight)...)
		cmd.Stdout, cmd.Stderr = &on, &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		t.Cleanup(func() { cmd.Process.Kill() })

		// Scrape from the moment the server answers until the final epoch is
		// out: every exposition valid, each monotonic over the one before,
		// and the last one counting the whole trace — warm-up included, which
		// is what folding the base across the metrics reset buys. (A request
		// that straddles the stripe boundary is served by both shards, so the
		// per-shard counts sum to at least the trace's length.)
		var prev *live.Exposition
		deadline := time.Now().Add(15 * time.Second)
		for scrapes := 0; ; {
			select {
			case err := <-exited:
				t.Fatalf("ftlsim exited (%v) while -telemetry-linger should hold it\n%s", err, stderr.String())
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("/metrics: %d scrapes, ftl_requests_total never reached the trace's %d requests", scrapes, requests)
			}
			body, err := httpDo(http.MethodGet, "http://"+addr+"/metrics")
			if err != nil { // still binding its port
				time.Sleep(20 * time.Millisecond)
				continue
			}
			cur, err := live.ValidatePrometheus(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("/metrics scrape %d: %v\n%s", scrapes+1, err, body)
			}
			if prev != nil {
				if err := live.CheckCounterMonotonic(prev, cur); err != nil {
					t.Fatalf("/metrics scrape %d over scrape %d: %v", scrapes+1, scrapes, err)
				}
			}
			prev, scrapes = cur, scrapes+1
			var served float64
			for key, v := range cur.Samples {
				if strings.HasPrefix(key, "ftl_requests_total{") {
					served += v
				}
			}
			if scrapes >= 2 && served >= requests {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}

		if _, err := httpDo(http.MethodPost, "http://"+addr+"/quit"); err != nil {
			t.Fatalf("POST /quit: %v", err)
		}
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("ftlsim with telemetry on: %v\n%s", err, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("POST /quit did not end the -telemetry-linger window")
		}

		if n, err := validateFile(flight, live.ValidateRecorderDump); err != nil || n == 0 {
			t.Fatalf("-recorder-out: %d flight records, err %v", n, err)
		}
		if !bytes.Equal(on.Bytes(), off) {
			t.Fatalf("stdout differs with telemetry on:\n--- on\n%s\n--- off\n%s", on.Bytes(), off)
		}
	})

	// -memprofile must size a small heap correctly: read the way the verify
	// notes say to (go tool pprof -sample_index=alloc_space), the two
	// constructors have to account for the device's arrays — 8 bytes per
	// logical page, 9 per physical page, the chip's record per block. At the
	// default 512 KiB sampling rate, or written without a collection first,
	// the profile is off by whole arrays or empty.
	t.Run("memprofile", func(t *testing.T) {
		const scale = 1 << 30
		prof := filepath.Join(t.TempDir(), "mem.pb.gz")
		report(t, "-requests", "2000", "-scale", fmt.Sprint(scale), "-memprofile", prof)
		top, err := exec.Command("go", "tool", "pprof", "-sample_index=alloc_space", "-unit=B", "-top", bin, prof).CombinedOutput()
		if err != nil {
			t.Fatalf("go tool pprof: %v\n%s", err, top)
		}
		var got int64
		for _, line := range strings.Split(string(top), "\n") {
			f := strings.Fields(line)
			if len(f) < 6 || (f[5] != "repro/internal/flash.New" && f[5] != "repro/internal/ftl.NewDevice") {
				continue
			}
			var flat int64
			if _, err := fmt.Sscanf(f[0], "%dB", &flat); err != nil {
				t.Fatalf("pprof line %q: %v", line, err)
			}
			got += flat
		}

		cfg := ftl.DefaultConfig(scale)
		cfg.Channels, cfg.Dies = ftl.DefaultChannels, ftl.DefaultDies
		d, err := ftl.NewDevice(cfg, core.New(core.DefaultConfig(cfg.CacheBytes)))
		if err != nil {
			t.Fatal(err)
		}
		fc := d.Chip().Config()
		const blockRecord = 40 // flash's per-block state: sequence base, write pointer, valid and erase counts, worn flag
		want := 8*d.Config().LogicalPages() + 9*fc.TotalPages() + blockRecord*int64(fc.NumBlocks)
		if diff := float64(got-want) / float64(want); diff < -0.05 || diff > 0.05 {
			t.Fatalf("flash.New + ftl.NewDevice allocated %d B by the profile, the device's arrays are %d B (%+.1f %%)\n%s",
				got, want, 100*diff, top)
		}
	})
}

// validateFile runs one of the shared artifact validators over a file.
func validateFile(path string, validate func(io.Reader) (int, error)) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return validate(f)
}

// httpDo issues one bodyless request and returns the response body; any
// status but 200 is an error.
func httpDo(method, url string) ([]byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return body, nil
}
