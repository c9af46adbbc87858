// Command bench is the repository's referee benchmark: one invocation replays
// one named workload through sim.Run many times on fresh devices and prints
// the end-to-end metrics BENCHMARK.json lists (or, with -trace 1, the
// per-layer ones), then one JSON result line. See README.md in this
// directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// minRepeats is the fewest timed repeats a run takes its medians over,
// whatever the time budget says.
const minRepeats = 5

// The program runs from the repository root (run.sh sees to it).
const (
	contractPath = "BENCHMARK.json"
	outDir       = "bench/out" // cached traces and span files
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var c config
	var traceFlag int
	var aaSets int
	flag.StringVar(&c.workload, "workload", "", "workload to run: fin1, randread, seqread or mixed2")
	flag.Int64Var(&c.seed, "seed", defaultSeed, "seed the workload's trace is generated from")
	flag.IntVar(&c.seconds, "seconds", 0, "time budget of the repeats, in seconds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics from untraced repeats; 1: per-layer metrics, ladder and spans")
	flag.IntVar(&aaSets, "aa", 0, "A/A mode: run this many full sets of the same code back to back and compare their medians")
	flag.Parse()
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		os.Exit(2)
	}
	c.trace = traceFlag == 1

	ct, err := loadContract(contractPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if c.seconds <= 0 {
		c.seconds = ct.RunSeconds
	}
	if aaSets > 0 {
		os.Exit(runAA(c, ct, aaSets))
	}
	os.Exit(runWorkload(c, ct))
}

// result is the last line of standard output, the form the referee parses.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload is one invocation: generate or reuse the traces, the
// instrumented repeats, timed repeats until the budget is spent, the ladder
// if asked for, the self-checks, the printout. It returns the exit code.
func runWorkload(c config, ct *contract) int {
	began := time.Now()
	s, err := specByName(c.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if problems := checkWorkloads(ct); len(problems) > 0 {
		return fail(problems)
	}
	// Two inputs. The pinned trace (the default seed's, SHA-256 checked) feeds
	// the instrumented repeats, so the simulated metrics and the counts compare
	// exactly between any two runs of any two commits. The trace made from
	// -seed feeds the timed repeats, so host time is sampled over inputs.
	dir := filepath.Join(outDir, "traces")
	pinned, sum, err := ensureTrace(s, defaultSeed, dir)
	if err != nil {
		return fail([]string{err.Error()})
	}
	path := pinned
	if c.seed != defaultSeed {
		if path, _, err = ensureTrace(s, c.seed, dir); err != nil {
			return fail([]string{err.Error()})
		}
		defer os.Remove(path) // only the pinned traces are kept
	}
	fmt.Printf("workload %s: %d records (%d warm-up + %d measured)\n", s.Name, s.records(), warmupRequests, s.Measured)
	fmt.Printf("  pinned trace %s sha256 %s: simulated metrics, counts, memory\n", pinned, sum)
	fmt.Printf("  seed %d trace %s: timed repeats\n", c.seed, path)
	fmt.Printf("  device %d MiB TPFTL, %d ch x %d dies, QD %d, shards %d, clients %d, GOMAXPROCS %d\n",
		deviceBytes>>20, s.Channels, s.Dies, s.QD, s.Shards, s.Clients, runtime.GOMAXPROCS(0))

	// The instrumented repeats go first, before the timed ones have grown
	// the heap, so their resident-memory high-water is what one sim.Run costs.
	deadline := time.Now().Add(time.Duration(c.seconds) * time.Second)
	ins, err := instrumentedRepeats(s, pinned)
	if err != nil {
		return fail([]string{"instrumented repeats: " + err.Error()})
	}
	if c.trace {
		// The ladder times sim.Run itself; here the repeats only feed the
		// spread and CPU figures, so the minimum number will do.
		deadline = time.Now()
	}
	// Every timed repeat must reproduce one reference outcome: the
	// instrumented repeats' on the pinned trace, the first timed repeat's on
	// any other.
	ref := ins.res
	if path != pinned {
		ref = nil
	}
	ts, ref, bad, repErr := timedRepeats(s, path, ref, deadline)
	repeats := int64(len(ts) + bad + rssRepeats)
	attempted := repeats * s.records()
	failed := int64(bad) * s.records()
	var problems []string
	if repErr != nil {
		problems = append(problems, repErr.Error())
	}
	if len(ts) == 0 {
		return finish(result{Attempted: attempted, Failed: attempted}, append(problems, "no timed repeat succeeded"))
	}
	problems = append(problems, checkOutcome(s, "pinned", ins.res)...)
	if ref != ins.res {
		problems = append(problems, checkOutcome(s, fmt.Sprintf("seed %d", c.seed), ref)...)
	}

	m := &ins.res.M
	e2e := endToEndValues(s, ins, ts)
	layer := countValues(s, ins, ts)
	layerDefs := countDefs
	if c.trace {
		spans := newSpanRecorder()
		rungs, err := runLadder(s, c.seed, path, ref, spans)
		if err != nil {
			problems = append(problems, "ladder: "+err.Error())
		}
		for k, v := range rungs {
			layer[k] = v
		}
		if err := writeSpans(spans, filepath.Join(outDir, fmt.Sprintf("spans-%s-s%d.json", s.Name, c.seed))); err != nil {
			problems = append(problems, err.Error())
		}
		layerDefs = perLayerDefs()
		problems = append(problems, checkNames(ct.PerLayer, layerDefs, layer)...)
	} else {
		problems = append(problems, checkNames(ct.EndToEnd, endToEndDefs, e2e)...)
	}

	fmt.Printf("repeats %d timed + %d instrumented, %.1f s\n", len(ts), rssRepeats, time.Since(began).Seconds())
	fmt.Printf("  replay wall as the clock read it: median %.4f s, IQR/median %.4f; machine speed %.3f of the reference\n",
		layer["sim.replay_wall_med_s"], layer["sim.replay_wall_iqr_rel"], layer["bench.machine_speed"])
	samples := m.Phase(obs.PhaseResponse).Count
	fmt.Printf("  response-time samples %d, %d beyond p99; RSS high-water of the instrumented repeats %v bytes, %d samples\n", samples, samples/100, ins.rssEach, ins.rssSamples)
	fmt.Println("end-to-end:")
	printValues(endToEndDefs, e2e)
	fmt.Println("per-layer:")
	printValues(layerDefs, layer)

	// -trace 0 reports exactly the end-to-end metrics, -trace 1 exactly the
	// per-layer ones.
	defs, values := endToEndDefs, e2e
	if c.trace {
		defs, values = layerDefs, layer
	}
	out := result{Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = resultValue{Value: values[d.Name], Unit: d.Unit}
	}
	return finish(out, problems)
}

// checkOutcome reports what is wrong with one replay's simulated outcome,
// whatever the host times were.
func checkOutcome(s spec, which string, res *sim.Result) []string {
	var problems []string
	m := &res.M
	if s.synthetic() && (m.PageWrites != 0 || m.FlashPrograms != 0 || m.FlashErases != 0) {
		problems = append(problems, fmt.Sprintf("%s trace: read-only workload programmed flash: %d host page writes, %d programs, %d erases; sim_write_amp must be exactly 1", which, m.PageWrites, m.FlashPrograms, m.FlashErases))
	}
	if u := meanChannelUtil(m); s.synthetic() && (u < s.UtilMin || u > s.UtilMax) {
		problems = append(problems, fmt.Sprintf("%s trace: mean channel utilisation %.3f is outside [%.2f, %.2f]: the fixed inter-arrival of %d ns no longer loads the device as intended", which, u, s.UtilMin, s.UtilMax, s.InterarrivalNS))
	}
	if got := res.TraceStats.Requests; int64(got) != s.records() {
		problems = append(problems, fmt.Sprintf("%s trace: sim.Run consumed %d records of %d", which, got, s.records()))
	}
	return problems
}

// checkWorkloads compares the contract's workload list with the specs.
func checkWorkloads(ct *contract) []string {
	var problems []string
	listed := map[string]bool{}
	for _, w := range ct.Workloads {
		listed[w.Name] = true
		if _, err := specByName(w.Name); err != nil {
			problems = append(problems, fmt.Sprintf("BENCHMARK.json names workload %s, which this program does not have", w.Name))
		}
	}
	for _, s := range specs() {
		if !listed[s.Name] {
			problems = append(problems, fmt.Sprintf("workload %s is not in BENCHMARK.json", s.Name))
		}
	}
	return problems
}

func printValues(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Printf("  %-30s %16.6g %-8s %-10s %s\n", d.Name, values[d.Name], d.Unit, "["+d.Clock+"]", d.Doc)
	}
}

func writeSpans(r *spanRecorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(r.spans), path)
	return f.Close()
}

// fail reports problems found before anything was measured: no result line.
func fail(problems []string) int {
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", p)
	}
	return 1
}

// finish prints the result line and picks the exit code. Any problem makes
// the run incorrect; a run with nothing else to blame counts every request
// as failed, so a referee that reads only the counts still sees it.
func finish(out result, problems []string) int {
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", p)
	}
	if len(problems) > 0 && out.Failed == 0 {
		out.Failed = out.Attempted
	}
	out.Correct = len(problems) == 0 && out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encoding the result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
