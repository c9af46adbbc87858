package live_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/live"
)

// TestCellEpochsFoldAcrossReset pins the monotonic-counter contract: totals
// published after a FoldBase (the warm-up metrics reset) keep growing even
// though the device's own counters restart from zero.
func TestCellEpochsFoldAcrossReset(t *testing.T) {
	p := live.NewPlane(4, 8)
	cells := p.StartRun(live.RunInfo{Scheme: "tpftl", Workload: "unit", Shards: 1, TotalRequests: 100})
	c := cells[0]
	if c.Load() != nil {
		t.Fatal("snapshot before first publish")
	}

	warm := obs.Counters{obs.CtrRequests: 50, obs.CtrLookups: 40, obs.CtrHits: 30, obs.CtrGCData: 2, obs.CtrGCTrans: 1}
	c.Publish(1000, warm, 7)
	s := c.Load()
	if s == nil || s.Seq != 1 || s.Total[obs.CtrRequests] != 50 || s.Delta[obs.CtrRequests] != 50 {
		t.Fatalf("first epoch wrong: %+v", s)
	}
	if s.Total[obs.CtrGCData] != 2 || s.Total[obs.CtrGCTrans] != 1 || s.MaxResponseNS != 7 {
		t.Fatalf("gc/max fields wrong: %+v", s)
	}

	// Warm-up reset: fold, then the device counts from zero again.
	c.FoldBase(warm)
	measured := obs.Counters{obs.CtrRequests: 10, obs.CtrLookups: 8, obs.CtrHits: 8, obs.CtrGCData: 1}
	c.Publish(2000, measured, 5)
	s2 := c.Load()
	if s2.Seq != 2 {
		t.Fatalf("seq = %d, want 2", s2.Seq)
	}
	if s2.Total[obs.CtrRequests] != 60 || s2.Total[obs.CtrLookups] != 48 || s2.Total[obs.CtrHits] != 38 {
		t.Fatalf("totals not folded: %+v", s2.Total)
	}
	if s2.Delta[obs.CtrRequests] != 10 {
		t.Fatalf("delta = %d, want 10", s2.Delta[obs.CtrRequests])
	}
	if s2.Total[obs.CtrGCData] != 3 || s2.Total[obs.CtrGCTrans] != 1 {
		t.Fatalf("gc totals not folded: %+v", s2)
	}
	if got := s2.HitRatio(); got != 38.0/48.0 {
		t.Fatalf("hit ratio = %v", got)
	}

	if !c.Due(4) || !c.Due(8) || c.Due(3) || c.Due(0) {
		t.Fatal("Due cadence wrong for every=4")
	}
	if p.Requests() != 60 {
		t.Fatalf("plane requests = %d, want 60", p.Requests())
	}
	c.SetQueueStats(70, 140, 9)
	if p.Requests() != 70 {
		t.Fatalf("plane requests should prefer admitted: %d", p.Requests())
	}
	if c.MeanDepth() != 2 {
		t.Fatalf("mean depth = %v, want 2", c.MeanDepth())
	}
}

// TestRecorderRingWrap pins the fixed-ring semantics: only the newest
// len(ring) records survive, oldest first, with stable sequence numbers.
func TestRecorderRingWrap(t *testing.T) {
	r := live.NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Append(live.Record{SimNS: int64(i), Kind: live.KindRead, Off: int64(i) * 4096})
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
	tail := r.Tail(nil)
	if len(tail) != 4 {
		t.Fatalf("retained %d records, want 4", len(tail))
	}
	for i, rec := range tail {
		wantSeq := int64(7 + i)
		if rec.Seq != wantSeq || rec.SimNS != wantSeq-1 {
			t.Fatalf("tail[%d] = %+v, want seq %d", i, rec, wantSeq)
		}
	}
}

// TestDumpRecordersRoundTrip renders a two-shard dump and feeds it back
// through its validator.
func TestDumpRecordersRoundTrip(t *testing.T) {
	p := live.NewPlane(0, 4)
	cells := p.StartRun(live.RunInfo{Scheme: "tpftl", Workload: "unit \"quoted\"", Shards: 2})
	for i := 0; i < 6; i++ {
		cells[0].Recorder().Append(live.Record{SimNS: int64(i), Kind: live.KindWrite, Off: int64(i), N: 4096})
	}
	cells[1].Recorder().Append(live.Record{SimNS: 1, Kind: live.KindGCData, Off: 3, N: 12, CompleteNS: 1})

	var buf bytes.Buffer
	if err := p.DumpRecorders(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := live.ValidateRecorderDump(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("dump does not validate: %v\n%s", err, buf.String())
	}
	if n != 5 { // 4 retained on shard 0 + 1 on shard 1
		t.Fatalf("validated %d records, want 5", n)
	}
}

// TestValidateRecorderDumpRejects feeds the validator the corruption shapes
// it exists to catch.
func TestValidateRecorderDumpRejects(t *testing.T) {
	head := "flight recorder: shards=1 ring=4 scheme=\"t\" workload=\"w\"\n"
	sect := "-- shard 0: total=2 retained=2 --\n"
	rec := func(seq int, kind string) string {
		return "seq=" + itoa(seq) + " sim_ns=0 kind=" + kind + " off=0 n=0 arrival_ns=0 admit_ns=0 complete_ns=0\n"
	}
	cases := map[string]string{
		"empty":           "",
		"no header":       sect + rec(1, "read") + rec(2, "read") + "end flight recorder\n",
		"missing trailer": head + sect + rec(1, "read") + rec(2, "read"),
		"unknown kind":    head + sect + rec(1, "warp") + rec(2, "read") + "end flight recorder\n",
		"seq regression":  head + sect + rec(2, "read") + rec(1, "read") + "end flight recorder\n",
		"count mismatch":  head + sect + rec(1, "read") + "end flight recorder\n",
		"stray record":    head + rec(1, "read") + "end flight recorder\n",
	}
	for name, in := range cases {
		if _, err := live.ValidateRecorderDump(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}

// scrapePlane builds a two-shard plane with published epochs, queue stats and
// a progress view — everything the exposition can render.
func scrapePlane(reqs int64) *live.Plane {
	p := live.NewPlane(0, 0)
	cells := p.StartRun(live.RunInfo{Scheme: "tpftl", Workload: `Fin"1`, Shards: 2, TotalRequests: 1000})
	for i, c := range cells {
		c.Publish(5e6, obs.Counters{obs.CtrRequests: reqs + int64(i), obs.CtrLookups: 2 * reqs, obs.CtrHits: reqs, obs.CtrGCData: 1}, 3e6)
		c.SetQueueStats(reqs+int64(i), 4*reqs, 8)
	}
	p.SetProgress(live.Progress{Requests: 2 * reqs, Total: 1000, ReqPerSec: 123.5, ETASeconds: 4, PeakRSSBytes: 1 << 20})
	return p
}

// TestPrometheusRoundTrip renders the exposition, validates it with the same
// parser the smoke uses, and checks monotonicity across two logical scrapes.
func TestPrometheusRoundTrip(t *testing.T) {
	var one, two bytes.Buffer
	p := scrapePlane(100)
	if err := live.WritePrometheus(&one, p); err != nil {
		t.Fatal(err)
	}
	prev, err := live.ValidatePrometheus(strings.NewReader(one.String()))
	if err != nil {
		t.Fatalf("scrape 1 invalid: %v\n%s", err, one.String())
	}
	for _, key := range []string{
		`ftl_requests_total{shard="0"}`,
		`ftl_requests_total{shard="1"}`,
		`ftl_gc_collections_total{pool="data",shard="0"}`,
		`ftl_hit_ratio{shard="0"}`,
		`ftl_queue_depth_max{shard="1"}`,
		`ftl_progress_requests`,
	} {
		if _, ok := prev.Samples[key]; !ok {
			t.Errorf("series %s missing from exposition", key)
		}
	}
	if prev.Types["ftl_requests_total"] != "counter" || prev.Types["ftl_hit_ratio"] != "gauge" {
		t.Fatalf("family types wrong: %v", prev.Types)
	}
	if got := prev.Samples[`ftl_requests_total{shard="0"}`]; got != 100 {
		t.Fatalf("requests sample = %v, want 100", got)
	}

	// Second scrape with advanced counters must be monotonic over the first;
	// the reverse comparison must fail.
	for _, c := range p.Cells() {
		c.Publish(6e6, obs.Counters{obs.CtrRequests: 150, obs.CtrLookups: 300, obs.CtrHits: 150, obs.CtrGCData: 2, obs.CtrGCTrans: 1}, 3e6)
	}
	if err := live.WritePrometheus(&two, p); err != nil {
		t.Fatal(err)
	}
	cur, err := live.ValidatePrometheus(strings.NewReader(two.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := live.CheckCounterMonotonic(prev, cur); err != nil {
		t.Fatalf("monotonic scrapes rejected: %v", err)
	}
	if err := live.CheckCounterMonotonic(cur, prev); err == nil {
		t.Fatal("counter decrease not detected")
	}
}

// TestPrometheusCatalogue pins what a scraper can rely on — every family's
// name, TYPE, label names and HELP — to the hand-written catalog that
// obs.CounterTable replaced (captured by running this walk at that commit).
// The order of families in the exposition is free; nothing may disappear or
// change type.
func TestPrometheusCatalogue(t *testing.T) {
	var buf bytes.Buffer
	if err := live.WritePrometheus(&buf, scrapePlane(100)); err != nil {
		t.Fatal(err)
	}
	help, typ, labels := map[string]string{}, map[string]string{}, map[string]map[string]bool{}
	labelName := regexp.MustCompile(`(\w+)="`)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if f := strings.SplitN(line, " ", 4); f[0] == "#" {
			if f[1] == "HELP" {
				help[f[2]] = f[3]
			} else {
				typ[f[2]] = f[3]
			}
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if labels[name] == nil {
			labels[name] = map[string]bool{}
		}
		for _, m := range labelName.FindAllStringSubmatch(line, -1) {
			labels[name][m[1]] = true
		}
	}
	var got []string
	for name, set := range labels {
		var names []string
		for l := range set {
			names = append(names, l)
		}
		sort.Strings(names)
		got = append(got, name+" "+typ[name]+" ["+strings.Join(names, ",")+"] "+help[name])
	}
	sort.Strings(got)
	want := []string{
		"ftl_admitted_total counter [shard] Requests admitted by the shard frontend.",
		"ftl_eta_seconds gauge [] Estimated wall-clock time to completion.",
		"ftl_flash_erases_total counter [shard] Flash block erases.",
		"ftl_flash_programs_total counter [shard] Flash page programs.",
		"ftl_flash_reads_total counter [shard] Flash page reads.",
		"ftl_flushes_total counter [shard] Host flush barriers served.",
		"ftl_gc_collections_total counter [pool,shard] Garbage collections by pool.",
		"ftl_gc_seconds_total counter [shard] Summed garbage-collection time (simulated).",
		"ftl_hit_ratio gauge [shard] Cumulative translation-cache hit ratio.",
		"ftl_hits_total counter [shard] Translation cache hits.",
		"ftl_lookups_total counter [shard] Translation cache lookups.",
		"ftl_max_response_seconds gauge [shard] Largest response time observed.",
		"ftl_page_reads_total counter [shard] User data page reads.",
		"ftl_page_writes_total counter [shard] User data page writes.",
		"ftl_peak_rss_bytes gauge [] Peak resident set size (memwatch).",
		"ftl_prefetched_total counter [shard] Translation entries prefetched.",
		"ftl_progress_requests gauge [] Requests served so far (all shards).",
		"ftl_progress_total_requests gauge [] Expected requests for the run.",
		"ftl_queue_depth_max gauge [shard] Largest in-flight depth at admission.",
		"ftl_queue_depth_mean gauge [shard] Mean in-flight depth at admission.",
		"ftl_queue_seconds_total counter [shard] Summed request queueing time (simulated).",
		"ftl_requests_per_second gauge [] Wall-clock request throughput (sampler).",
		"ftl_requests_total counter [shard] Host requests served.",
		"ftl_response_seconds_total counter [shard] Summed request response time (simulated).",
		"ftl_run_info gauge [scheme,shards,workload] Run metadata (value is always 1).",
		"ftl_service_seconds_total counter [shard] Summed request service time (simulated).",
		"ftl_sim_time_seconds gauge [shard] Simulated clock at the latest epoch.",
		"ftl_telemetry_epochs_total counter [shard] Telemetry epochs published.",
		"ftl_trans_reads_total counter [shard] Translation page reads.",
		"ftl_trans_writes_total counter [shard] Translation page writes.",
		"ftl_trimmed_pages_total counter [shard] Logical pages invalidated by TRIM.",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("catalogue drifted:\n got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestValidatePrometheusRejects feeds the parser the syntax violations it
// polices.
func TestValidatePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"bad metric name":   "9leading 1\n",
		"bad label name":    `m{__internal="x"} 1` + "\n",
		"unquoted label":    `m{l=x} 1` + "\n",
		"bad escape":        `m{l="a\q"} 1` + "\n",
		"missing value":     "m\n",
		"bad value":         "m one\n",
		"bad timestamp":     "m 1 soon\n",
		"duplicate series":  "m 1\nm 2\n",
		"dup type":          "# TYPE m counter\n# TYPE m counter\nm 1\n",
		"invalid type":      "# TYPE m countermeasure\nm 1\n",
		"type after sample": "m 1\n# TYPE m counter\n",
	}
	for name, in := range cases {
		if _, err := live.ValidatePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

// TestMuxEndpoints drives the HTTP surface end to end: /metrics validates as
// an exposition, /snapshot as the JSON document, /quit is POST-only and
// invokes the callback.
func TestMuxEndpoints(t *testing.T) {
	p := scrapePlane(42)
	quits := 0
	srv := httptest.NewServer(live.NewMux(p, func() { quits++ }))
	defer srv.Close()

	body := get(t, srv.Client(), srv.URL+"/metrics")
	if _, err := live.ValidatePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics invalid: %v", err)
	}

	var doc struct {
		Run    live.RunInfo `json:"run"`
		Shards []struct {
			Shard    int            `json:"shard"`
			Epoch    *live.Snapshot `json:"epoch"`
			Admitted int64          `json:"admitted"`
		} `json:"shards"`
		Totals   obs.Counters   `json:"totals"`
		Progress *live.Progress `json:"progress"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.Client(), srv.URL+"/snapshot")), &doc); err != nil {
		t.Fatalf("/snapshot: %v", err)
	}
	if doc.Run.Shards != 2 || len(doc.Shards) != 2 {
		t.Fatalf("snapshot run/shards wrong: %+v", doc.Run)
	}
	if doc.Shards[1].Epoch == nil || doc.Shards[1].Epoch.Total[obs.CtrRequests] != 43 {
		t.Fatalf("shard 1 epoch wrong: %+v", doc.Shards[1])
	}
	if doc.Totals[obs.CtrRequests] != 42+43 {
		t.Fatalf("totals = %d", doc.Totals[obs.CtrRequests])
	}
	if doc.Progress == nil || doc.Progress.ReqPerSec != 123.5 {
		t.Fatalf("progress missing: %+v", doc.Progress)
	}

	if resp, err := srv.Client().Get(srv.URL + "/quit"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /quit: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	resp, err := srv.Client().Post(srv.URL+"/quit", "text/plain", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /quit: %v %v", resp, err)
	}
	resp.Body.Close()
	if quits != 1 {
		t.Fatalf("quit callback ran %d times", quits)
	}
}

func get(t *testing.T, c *http.Client, url string) string {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
