package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/obstest"
)

// lockedBuffer is a goroutine-safe progress sink (the sampler writes from
// its own goroutine).
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRuntimeServesAndLingers drives the runtime end to end: the server
// scrapes while the "run" publishes, the sampler writes progress lines and a
// progress view, and POST /quit ends the linger window early (the test would
// time out if it did not).
func TestRuntimeServesAndLingers(t *testing.T) {
	plane := live.NewPlane(0, 0)
	cells := plane.StartRun(live.RunInfo{Scheme: "tpftl", Workload: "unit", Shards: 1, TotalRequests: 500})
	cells[0].Store(&obs.Epoch{Seq: 1, SimTimeNS: 1e9, Total: obs.Counters{obs.CtrRequests: 100, obs.CtrLookups: 80, obs.CtrHits: 60}, MaxResponseNS: 5e6})

	var progress lockedBuffer
	tel, err := Start(Options{
		Addr:     "127.0.0.1:0",
		Plane:    plane,
		Progress: &progress,
		Interval: 10 * time.Millisecond,
		Linger:   time.Hour, // must be cut short by POST /quit
	})
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + tel.Addr()

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, err := obstest.ValidatePrometheus(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, body)
	}

	// Give the sampler a few ticks, then check its two outputs.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if pr, ok := plane.Progress(); ok && pr.Requests == 100 && strings.Contains(progress.String(), "100/500") {
			break
		}
		if time.Now().After(deadline) {
			pr, ok := plane.Progress()
			t.Fatalf("sampler never published: progress=%v ok=%v lines=%q", pr, ok, progress.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	finished := make(chan struct{})
	go func() { tel.Finish(); close(finished) }()
	resp, err = http.Post(url+"/quit", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("POST /quit did not end the linger window")
	}
}
