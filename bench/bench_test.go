package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/obs/live"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// None of these tests reads a clock to decide pass or fail.

const (
	tinyDevice = 16 << 20
	tinyBatch  = 64
	tinyWarmup = 4 * tinyBatch
	tinyTotal  = 16 * tinyBatch
)

// sliceSource is a traceSource over an in-memory trace.
type sliceSource struct {
	*trace.SliceIterator
	maxEnd, records int64
}

func (s sliceSource) MaxEnd() int64  { return s.maxEnd }
func (s sliceSource) Records() int64 { return s.records }

func tinySource(t *testing.T) sliceSource {
	t.Helper()
	reqs, err := workload.Generate(workload.Financial1().Scale(tinyDevice), tinyTotal, 7)
	if err != nil {
		t.Fatal(err)
	}
	return sliceSource{trace.NewSliceIterator(reqs), trace.Summarize(reqs).MaxEnd, int64(len(reqs))}
}

func tinyOptions(shards int, plane *live.Plane) func(trace.Iterator) sim.Options {
	return func(it trace.Iterator) sim.Options {
		return sim.Options{
			Scheme:           sim.SchemeTPFTL,
			Profile:          workload.Profile{Name: "tiny", AddressSpace: tinyDevice},
			TraceStream:      it,
			StreamBatch:      tinyBatch,
			Shards:           shards,
			Clients:          shards,
			QueueDepth:       2,
			Precondition:     1,
			ResetAfterWarmup: tinyWarmup,
			Telemetry:        plane,
		}
	}
}

// The stamp must fire once, exactly when record W is about to be handed out,
// on the serial path and behind the sharded host's router alike.
func TestPhaseStampFiresAtWarmupBoundary(t *testing.T) {
	for _, shards := range []int{0, 2} {
		src := tinySource(t)
		var it *phaseIter
		handedAtStamp := int64(-1)
		res, timed, err := stampedRun(time.Now(), src, tinyWarmup, replayHooks{yard: newYardstick()}, func(inner trace.Iterator) sim.Options {
			it = inner.(*phaseIter)
			it.onStamp = func() { handedAtStamp = it.handed }
			return tinyOptions(shards, nil)(inner)
		})
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		if it.fired != 1 || handedAtStamp != tinyWarmup {
			t.Errorf("shards %d: stamp fired %d times with %d records handed out, want once at %d", shards, it.fired, handedAtStamp, tinyWarmup)
		}
		if it.handed != tinyTotal || int64(res.TraceStats.Requests) != tinyTotal {
			t.Errorf("shards %d: handed %d, run saw %d, want %d", shards, it.handed, res.TraceStats.Requests, tinyTotal)
		}
		// One yardstick slice per Next call: every batch and the call that
		// reports EOF.
		if want := tinyTotal/tinyBatch + 1; it.yardSlices != want || timed.Speed <= 0 {
			t.Errorf("shards %d: %d yardstick slices (speed %v), want %d", shards, it.yardSlices, timed.Speed, want)
		}
		if it.MaxEnd() != src.maxEnd || it.Records() != src.records {
			t.Errorf("shards %d: wrapper reports MaxEnd %d Records %d, source %d %d", shards, it.MaxEnd(), it.Records(), src.maxEnd, src.records)
		}
	}
}

// A warm-up length that is not a batch multiple must be an error, not a
// silently misplaced phase boundary.
func TestPhaseStampMissIsAnError(t *testing.T) {
	_, _, err := stampedRun(time.Now(), tinySource(t), tinyWarmup+1, replayHooks{}, tinyOptions(0, nil))
	if err == nil || !strings.Contains(err.Error(), "phase stamp fired 0 times") {
		t.Fatalf("got %v, want a phase-stamp error", err)
	}
}

// Wrapping the source must not change what sim.Run computes, with spans and
// telemetry attached or not.
func TestWrappedRunMatchesPlainRun(t *testing.T) {
	for _, shards := range []int{0, 2} {
		plain, err := sim.Run(tinyOptions(shards, nil)(tinySource(t)))
		if err != nil {
			t.Fatal(err)
		}
		hooks := replayHooks{spans: newSpanRecorder(), plane: live.NewPlane(0, 0)}
		wrapped, _, err := stampedRun(hooks.spans.origin, tinySource(t), tinyWarmup, hooks, tinyOptions(shards, hooks.plane))
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameWork(plain, wrapped); diff != "" {
			t.Errorf("shards %d: %s", shards, diff)
		}
		checkSpans(t, hooks.spans)
	}
}

func checkSpans(t *testing.T, r *spanRecorder) {
	t.Helper()
	if len(r.spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Errorf("span %d %q never closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent > len(r.spans) || s.Parent == s.ID {
			t.Errorf("span %d %q has unresolved parent %d", s.ID, s.Name, s.Parent)
			continue
		}
		if p := r.spans[s.Parent-1]; s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %q [%v,%v] lies outside its parent %q [%v,%v]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
}

func TestRungSpansAndChromeOutput(t *testing.T) {
	l := &ladder{spans: newSpanRecorder(), values: map[string]float64{}}
	if _, err := l.rung("test.rung", func() (time.Time, error) { return time.Now(), nil }); err != nil {
		t.Fatal(err)
	}
	checkSpans(t, l.spans)
	if len(l.spans.spans) != 1+ladderPasses {
		t.Errorf("%d spans, want one rung and %d passes", len(l.spans.spans), ladderPasses)
	}
	var buf bytes.Buffer
	if err := l.spans.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(l.spans.spans) || doc.TraceEvents[1].Args.Parent != 1 || doc.TraceEvents[1].Ph != "X" {
		t.Errorf("unexpected trace_event document: %+v", doc.TraceEvents)
	}
}

// geometryProbe records whether the ladder told a GeometryAware translator
// the device geometry before driving it.
type geometryProbe struct {
	ftl.Translator
	got int
}

func (g *geometryProbe) SetGeometry(entriesPerTP int) { g.got = entriesPerTP }

var _ ftl.GeometryAware = (*geometryProbe)(nil)

func TestNullEnvDrivesTranslators(t *testing.T) {
	const lpns, perTP = 4096, 256
	probe := &geometryProbe{}
	prepareTranslator(probe, newNullEnv(lpns, perTP))
	if probe.got != perTP {
		t.Errorf("SetGeometry got %d, want %d", probe.got, perTP)
	}

	reqs := []trace.Request{
		{Arrival: 1, Offset: 0, Length: 3 * ftl.DefaultPageBytes, Op: trace.OpWrite},
		{Arrival: 2, Offset: ftl.DefaultPageBytes, Length: ftl.DefaultPageBytes, Op: trace.OpRead},
		{Arrival: 3, Op: trace.OpFlush},
	}
	for _, scheme := range []sim.Scheme{sim.SchemeTPFTL, sim.SchemeDFTL, sim.SchemeSFTL} {
		tr, err := sim.NewTranslator(scheme, 64, lpns, nil)
		if err != nil {
			t.Fatal(err)
		}
		env := newNullEnv(lpns, perTP)
		prepareTranslator(tr, env)
		pages, err := driveTranslator(tr, env, reqs, math.MaxInt64)
		if err != nil || pages != 4 {
			t.Fatalf("%s: %d pages, %v; want 4", scheme, pages, err)
		}
		// The write's new mapping must be what a later lookup returns,
		// whether it is still cached or was written back to the table.
		if ppn, err := tr.Translate(env, 1); err != nil || ppn != flash.PPN(lpns+1) {
			t.Errorf("%s: LPN 1 translates to %d (%v), want %d", scheme, ppn, err, lpns+1)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, s := range specs() {
		check(s.Name)
	}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs()...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
}

// BENCHMARK.json must list exactly what the program prints.
func TestContractMatchesProgram(t *testing.T) {
	ct, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkWorkloads(ct) {
		t.Error(p)
	}
	filled := func(defs []metricDef) map[string]float64 {
		m := map[string]float64{}
		for _, d := range defs {
			m[d.Name] = 1
		}
		return m
	}
	for _, p := range checkNames(ct.EndToEnd, endToEndDefs, filled(endToEndDefs)) {
		t.Error(p)
	}
	for _, p := range checkNames(ct.PerLayer, perLayerDefs(), filled(perLayerDefs())) {
		t.Error(p)
	}
	for _, m := range ct.EndToEnd {
		if b := ct.bound(m.Name); b <= 0 || b > 0.25 || b > ct.bound("setup_s") {
			t.Errorf("%s: bound %v must be in (0, 0.25] and no larger than setup_s's", m.Name, b)
		}
	}
	if len(ct.Paths) != 1 || ct.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", ct.Paths)
	}
}

func TestCheckNamesReportsEveryMismatch(t *testing.T) {
	listed := []contractMetric{{Name: "a", Unit: "s", Better: "lower"}, {Name: "gone", Unit: "s", Better: "lower"}}
	defs := []metricDef{{Name: "a", Unit: "ms", Better: "lower"}, {Name: "new", Unit: "s", Better: "lower"}}
	got := strings.Join(checkNames(listed, defs, map[string]float64{"a": math.NaN(), "stray": 1}), "\n")
	for _, want := range []string{"a is ms/lower here", "a is NaN", "new is printed but", "new was not measured", "gone is in BENCHMARK.json but not printed", "stray has no definition"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

func TestGeneratedTracesAreSeededAndStamped(t *testing.T) {
	for _, s := range specs() {
		s.Measured = 2 * streamBatch
		collect := func(seed int64) []trace.Request {
			var out []trace.Request
			if err := s.generate(seed, func(r trace.Request) error {
				out = append(out, r)
				return r.Validate()
			}); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			return out
		}
		a, again, b := collect(1), collect(1), collect(2)
		if int64(len(a)) != s.records() {
			t.Fatalf("%s: %d records, want %d", s.Name, len(a), s.records())
		}
		same := true
		for i := range a {
			if a[i] != again[i] {
				t.Fatalf("%s: seed 1 is not reproducible at record %d", s.Name, i)
			}
			if i > 0 && a[i].Arrival < a[i-1].Arrival || a[i].Arrival <= 0 {
				t.Fatalf("%s: record %d arrival %d breaks the stamp rule", s.Name, i, a[i].Arrival)
			}
			if a[i].End() > deviceBytes || (s.synthetic() && a[i].Op != trace.OpRead) {
				t.Fatalf("%s: record %d is %+v", s.Name, i, a[i])
			}
			same = same && a[i] == b[i]
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 generate the same trace", s.Name)
		}
	}
}

func TestPinnedTraceDriftIsAnError(t *testing.T) {
	s, err := specByName("seqread")
	if err != nil {
		t.Fatal(err)
	}
	s.Measured = streamBatch
	dir := t.TempDir()
	if err := writeTraceFile(s, defaultSeed, s.tracePath(dir, defaultSeed)); err != nil {
		t.Fatal(err)
	}
	if s.SHA256, err = fileSHA256(s.tracePath(dir, defaultSeed)); err != nil {
		t.Fatal(err)
	}
	if _, sum, err := ensureTrace(s, defaultSeed, dir); err != nil || sum != s.SHA256 {
		t.Fatalf("matching pin: %v", err)
	}
	if _, _, err := ensureTrace(s, defaultSeed+1, dir); err != nil {
		t.Fatalf("unpinned seed: %v", err)
	}
	s.SHA256 = strings.Repeat("0", 64)
	if _, _, err := ensureTrace(s, defaultSeed, dir); err == nil || !strings.Contains(err.Error(), "input drift") {
		t.Fatalf("got %v, want an input-drift error", err)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
}

func TestScaledTimesUseTheRepeatsOwnSpeed(t *testing.T) {
	ts := []timing{
		{Replay: 4 * time.Second, Speed: 0.5}, // a slow period: 2 s at reference speed
		{Replay: 2 * time.Second, Speed: 1},
		{Replay: 3 * time.Second, Speed: 1},
	}
	if got := medianOf(ts, func(t timing) float64 { return t.scaled(t.Replay) }); got != 2 {
		t.Errorf("median scaled replay %v, want 2", got)
	}
}

func TestStatusField(t *testing.T) {
	img := []byte("VmRSS:\t   20480 kB\nRssAnon:\t    1234 kB\nRssFile:\t 99 kB\n")
	if kb, ok := statusField(img, "RssAnon:"); !ok || kb != 1234 {
		t.Errorf("got %d %v", kb, ok)
	}
	if _, ok := statusField(img, "RssShmem:"); ok {
		t.Error("found a field that is not there")
	}
}

func TestWriteAmpOfAReadOnlyRunIsOne(t *testing.T) {
	if wa := writeAmp(&ftl.Metrics{PageReads: 10}); wa != 1 {
		t.Errorf("read-only: %v", wa)
	}
	if wa := writeAmp(&ftl.Metrics{PageWrites: 10, GCDataMigrations: 5}); wa != 1.5 {
		t.Errorf("with writes: %v", wa)
	}
}
