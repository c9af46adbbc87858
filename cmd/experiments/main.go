// Command experiments regenerates every table and figure of the TPFTL
// paper's evaluation (§5), and the extension experiments beyond it, and
// prints them as text tables.
//
// Experiments (-exp, a comma-separated list):
//
//	table2  Table 2  — DFTL's deviation from the optimal FTL
//	fig1    Fig. 1   — distribution of entries in DFTL's mapping cache
//	fig2    Fig. 2b  — cached translation pages over time (Financial1)
//	fig6    Fig. 6   — scheme comparison: Prd, Hr, translation I/O,
//	                   response time, write amplification
//	fig7    Fig. 7   — block erase counts; ablation Prd and hit ratio
//	fig8    Fig. 8   — ablation response time / WA; cache-size sweep Prd
//	fig9    Fig. 9   — cache-size sweep: hit ratio, response time, WA
//	fig10   Fig. 10  — cache space-utilization improvement over DFTL
//	model   Eq. 1-13 — analytic model evaluated on measured parameters
//	all     every experiment above
//	ext     extensions: mapping granularity (block, BAST, FAST, TPFTL),
//	        GC policy, wear levelling, hotness ordering, CFLRU data
//	        buffer, recovery scan (not part of all)
//
// The default scale (300k requests, MSR workloads at 2 GB) regenerates the
// paper's shapes in minutes; -requests and -msrscale restore full scale.
// -allschemes adds the related-work schemes (CDFTL, ZFTL) to the comparison
// and -json writes every result it printed as one JSON document.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/sim"
)

// paperExperiments are the names -exp all selects, in -exp's order.
var paperExperiments = []string{"table2", "fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "model"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args, runs the selected experiments and prints their tables to
// w; an experiment that fails and a -json file that cannot be written are
// errors.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		exp      = fs.String("exp", "all", "experiments: all, ext, or a list of "+strings.Join(paperExperiments, ", "))
		requests = fs.Int("requests", 0, "requests per run (default 300000)")
		msrScale = fs.Int64("msrscale", 0, "MSR address-space scale in bytes (default 2 GiB; 0 keeps default, use 17179869184 for the paper's 16 GiB)")
		seed     = fs.Int64("seed", 0, "workload seed (default 42)")
		allSch   = fs.Bool("allschemes", false, "include CDFTL and ZFTL in the comparison")
		jsonOut  = fs.String("json", "", "also write machine-readable results to this file")
	)
	fs.Parse(args)
	want, err := selectExperiments(*exp)
	if err != nil {
		return err
	}
	// Create the JSON file first, so a path that cannot be written fails
	// before the experiments run rather than after.
	var jsonFile *os.File
	if *jsonOut != "" {
		if jsonFile, err = os.Create(*jsonOut); err != nil {
			return err
		}
		defer jsonFile.Close()
	}
	e := sim.ExpConfig{Requests: *requests, MSRScale: *msrScale, Seed: *seed, AllSchemes: *allSch}.Defaults()
	results := map[string]any{}

	// Each step runs one driver and prints and records what the selected
	// experiments need of it. fig6, fig7 and table2 share the comparison
	// sweep, fig7 and fig8 the ablation, fig8 and fig9 the cache sweep.
	steps := []struct {
		name string
		on   bool
		run  func() error
	}{
		{"comparison", want["table2"] || want["fig6"] || want["fig7"], func() error {
			cells, err := e.RunComparison()
			if err != nil {
				return err
			}
			results["comparison"] = cells
			if want["fig6"] {
				printFig6(w, cells)
			}
			if want["fig7"] {
				printFig7a(w, cells)
			}
			if want["table2"] {
				printTable2(w, cells)
				results["table2"] = sim.Table2(cells)
			}
			return nil
		}},
		{"fig1", want["fig1"], record(w, results, "fig1", e.RunCacheDistribution, printFig1)},
		{"fig2", want["fig2"], record(w, results, "fig2", e.RunSpatialLocality, printFig2)},
		{"ablation", want["fig7"] || want["fig8"], record(w, results, "ablation", e.RunAblation, printAblation)},
		{"cache sweep", want["fig8"] || want["fig9"], record(w, results, "cacheSweep", e.RunCacheSweep, printSweep)},
		{"fig10", want["fig10"], record(w, results, "fig10", e.RunSpaceUtilization, printFig10)},
		{"model", want["model"], record(w, results, "model", e.RunModel, printModel)},
		{"ext", want["ext"], record(w, results, "ext", e.RunExtensions, printExtensions)},
	}
	start := time.Now()
	for _, s := range steps {
		if !s.on {
			continue
		}
		t0 := time.Now()
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintf(w, "[%s done in %v]\n\n", s.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(w, "total %v\n", time.Since(start).Round(time.Millisecond))

	if jsonFile == nil {
		return nil
	}
	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if _, err := jsonFile.Write(blob); err != nil {
		return err
	}
	if err := jsonFile.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", *jsonOut)
	return nil
}

// record returns a step that runs an experiment and, if it succeeds, records
// its result under key and prints it.
func record[T any](w io.Writer, results map[string]any, key string, run func() (T, error), print func(io.Writer, T)) func() error {
	return func() error {
		r, err := run()
		if err == nil {
			results[key] = r
			print(w, r)
		}
		return err
	}
}

// selectExperiments parses -exp into the set of experiments to run; all
// stands for every paper experiment.
func selectExperiments(list string) (map[string]bool, error) {
	valid := map[string]bool{"all": true, "ext": true}
	for _, name := range paperExperiments {
		valid[name] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if !valid[name] {
			return nil, fmt.Errorf("unknown experiment %q (want all, ext, %s)", name, strings.Join(paperExperiments, ", "))
		}
		want[name] = true
	}
	if want["all"] {
		for _, name := range paperExperiments {
			want[name] = true
		}
	}
	return want, nil
}

func printFig6(w io.Writer, cells []sim.ComparisonCell) {
	workloads := sim.WorkloadsOf(cells)
	schemes := sim.SchemesOf(cells)
	byKey := map[string]map[sim.Scheme]sim.ComparisonCell{}
	for _, c := range cells {
		if byKey[c.Workload] == nil {
			byKey[c.Workload] = map[sim.Scheme]sim.ComparisonCell{}
		}
		byKey[c.Workload][c.Scheme] = c
	}
	header := func(title string) {
		fmt.Fprintln(w, title)
		fmt.Fprintf(w, "%-12s", "workload")
		for _, s := range schemes {
			fmt.Fprintf(w, "%12s", s)
		}
		fmt.Fprintln(w)
	}
	row := func(wl string, get func(sim.ComparisonCell) string) {
		fmt.Fprintf(w, "%-12s", wl)
		for _, s := range schemes {
			fmt.Fprintf(w, "%12s", get(byKey[wl][s]))
		}
		fmt.Fprintln(w)
	}

	header("Fig. 6a — probability of replacing a dirty entry")
	for _, wl := range workloads {
		row(wl, func(c sim.ComparisonCell) string { return fmt.Sprintf("%.1f%%", c.Prd*100) })
	}
	fmt.Fprintln(w)

	header("Fig. 6b — cache hit ratio")
	for _, wl := range workloads {
		row(wl, func(c sim.ComparisonCell) string { return fmt.Sprintf("%.1f%%", c.Hr*100) })
	}
	fmt.Fprintln(w)

	norm := sim.NormalizeToDFTL(cells, func(c sim.ComparisonCell) float64 { return float64(c.TReads) })
	header("Fig. 6c — translation page reads (normalized to DFTL)")
	for _, wl := range workloads {
		row(wl, func(c sim.ComparisonCell) string { return fmt.Sprintf("%.3f", norm[wl][c.Scheme]) })
	}
	fmt.Fprintln(w)

	norm = sim.NormalizeToDFTL(cells, func(c sim.ComparisonCell) float64 { return float64(c.TWrites) })
	header("Fig. 6d — translation page writes (normalized to DFTL)")
	for _, wl := range workloads {
		row(wl, func(c sim.ComparisonCell) string { return fmt.Sprintf("%.3f", norm[wl][c.Scheme]) })
	}
	fmt.Fprintln(w)

	norm = sim.NormalizeToDFTL(cells, func(c sim.ComparisonCell) float64 { return float64(c.Resp) })
	header("Fig. 6e — system response time (normalized to DFTL)")
	for _, wl := range workloads {
		row(wl, func(c sim.ComparisonCell) string { return fmt.Sprintf("%.3f", norm[wl][c.Scheme]) })
	}
	fmt.Fprintln(w)

	header("Fig. 6f — write amplification")
	for _, wl := range workloads {
		row(wl, func(c sim.ComparisonCell) string { return fmt.Sprintf("%.2f", c.WA) })
	}
	fmt.Fprintln(w)
}

func printFig7a(w io.Writer, cells []sim.ComparisonCell) {
	workloads := sim.WorkloadsOf(cells)
	schemes := sim.SchemesOf(cells)
	norm := sim.NormalizeToDFTL(cells, func(c sim.ComparisonCell) float64 { return float64(c.Erases) })
	fmt.Fprintln(w, "Fig. 7a — block erase count (normalized to DFTL)")
	fmt.Fprintf(w, "%-12s", "workload")
	for _, s := range schemes {
		fmt.Fprintf(w, "%12s", s)
	}
	fmt.Fprintln(w)
	for _, wl := range workloads {
		fmt.Fprintf(w, "%-12s", wl)
		for _, s := range schemes {
			fmt.Fprintf(w, "%12.3f", norm[wl][s])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func printTable2(w io.Writer, cells []sim.ComparisonCell) {
	fmt.Fprintln(w, "Table 2 — deviations of DFTL from the optimal FTL")
	fmt.Fprintf(w, "%-12s %12s %12s\n", "workload", "performance", "erasure")
	for _, r := range sim.Table2(cells) {
		fmt.Fprintf(w, "%-12s %11.1f%% %11.1f%%\n", r.Workload, r.Performance*100, r.Erasure*100)
	}
	fmt.Fprintln(w)
}

func printFig1(w io.Writer, results []sim.DistributionResult) {
	fmt.Fprintln(w, "Fig. 1a — average number of entries in each cached translation page (DFTL)")
	fmt.Fprintf(w, "%-12s %10s %10s %10s\n", "workload", "min", "mean", "max")
	for _, r := range results {
		min, max, sum := 1e18, 0.0, 0.0
		for _, v := range r.AvgEntriesPerTP {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
		}
		mean := 0.0
		if n := len(r.AvgEntriesPerTP); n > 0 {
			mean = sum / float64(n)
		} else {
			min = 0
		}
		fmt.Fprintf(w, "%-12s %10.1f %10.1f %10.1f\n", r.Workload, min, mean, max)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Fig. 1b — CDF of dirty entries per cached translation page (DFTL)")
	fmt.Fprintf(w, "%-12s %10s %14s %14s %14s\n", "workload", "mean", "P(≤1 dirty)", "P(≤5 dirty)", "P(≤15 dirty)")
	for _, r := range results {
		at := func(k int) float64 {
			if len(r.DirtyCDF) == 0 {
				return 0
			}
			if k >= len(r.DirtyCDF) {
				k = len(r.DirtyCDF) - 1
			}
			return r.DirtyCDF[k]
		}
		fmt.Fprintf(w, "%-12s %10.2f %13.1f%% %13.1f%% %13.1f%%\n",
			r.Workload, r.MeanDirtyPerTP, at(1)*100, at(5)*100, at(15)*100)
	}
	fmt.Fprintln(w)
}

func printFig2(w io.Writer, r *sim.SpatialResult) {
	fmt.Fprintln(w, "Fig. 2b — cached translation pages in DFTL over time (Financial1)")
	// Bucket the series; min/max per bucket expose the dips that mark
	// sequential phases (the paper's ovals).
	n := len(r.TPNodes)
	if n == 0 {
		fmt.Fprintln(w, "(no samples)")
		return
	}
	buckets := 20
	if n < buckets {
		buckets = n
	}
	fmt.Fprintf(w, "%14s %8s %8s %8s\n", "page accesses", "min", "mean", "max")
	for b := 0; b < buckets; b++ {
		lo, hi := b*n/buckets, (b+1)*n/buckets
		min, max, sum := 1<<30, 0, 0
		for i := lo; i < hi; i++ {
			v := r.TPNodes[i]
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
		}
		fmt.Fprintf(w, "%14d %8d %8.1f %8d\n", r.PageAccesses[lo], min, float64(sum)/float64(hi-lo), max)
	}
	fmt.Fprintln(w)
}

func printAblation(w io.Writer, cells []sim.AblationCell) {
	fmt.Fprintln(w, "Figs. 7b/7c/8a/8b — benefits of each TPFTL technique (Financial1)")
	fmt.Fprintf(w, "%-8s %10s %10s %14s %8s\n", "variant", "Prd", "hit ratio", "resp time", "WA")
	for _, c := range cells {
		fmt.Fprintf(w, "%-8s %9.1f%% %9.1f%% %14v %8.2f\n",
			c.Variant, c.Prd*100, c.Hr*100, c.Resp.Round(time.Microsecond), c.WA)
	}
	fmt.Fprintln(w)
}

func printSweep(w io.Writer, cells []sim.SweepCell) {
	sim.SortSweep(cells)
	fmt.Fprintln(w, "Figs. 8c/9 — impact of cache sizes on TPFTL")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %14s %8s\n", "workload", "cache", "Prd", "hit ratio", "resp time", "WA")
	for _, c := range cells {
		fmt.Fprintf(w, "%-12s %10s %9.1f%% %9.1f%% %14v %8.2f\n",
			c.Workload, fracName(c.Fraction), c.Prd*100, c.Hr*100, c.Resp.Round(time.Microsecond), c.WA)
	}
	fmt.Fprintln(w)
}

func printFig10(w io.Writer, cells []sim.UtilizationCell) {
	fmt.Fprintln(w, "Fig. 10 — improvement of cache space utilization over DFTL")
	fmt.Fprintf(w, "%-12s %10s %14s\n", "workload", "cache", "improvement")
	for _, c := range cells {
		fmt.Fprintf(w, "%-12s %10s %13.1f%%\n", c.Workload, fracName(c.Fraction), c.Improvement*100)
	}
	fmt.Fprintln(w)
}

func printModel(w io.Writer, r *sim.ModelResult) {
	p := r.Params
	fmt.Fprintf(w, "Analytic models (Eqs. 1–13) on measured DFTL parameters, %s\n", r.Workload)
	fmt.Fprintf(w, "inputs: Hr=%.3f Prd=%.3f Hgcr=%.3f Rw=%.3f Vd=%.1f Vt=%.1f Npa=%d\n",
		p.Hr, p.Prd, p.Hgcr, p.Rw, p.Vd, p.Vt, int64(p.Npa))
	fmt.Fprintf(w, "Eq. 1  Tat  (mean translation time)        %v\n", r.Tat.Round(time.Nanosecond))
	fmt.Fprintf(w, "Eq. 8  Ntw  model %.0f   measured %d\n", r.Ntw, r.MeasuredNtw)
	fmt.Fprintf(w, "Eq. 7  Ngcd model %.0f   measured %d\n", r.Ngcd, r.MeasuredNgcd)
	fmt.Fprintf(w, "Eq. 2  Nmd  model %.0f   measured %d\n", r.Nmd, r.MeasuredNmd)
	fmt.Fprintf(w, "Eq. 3  Ndt  model %.0f   measured GC misses %d (flash writes %d after batching)\n",
		r.Ndt, r.GCMisses, r.TransWritesGC)
	fmt.Fprintf(w, "Eq. 10 Tgcd (data GC per access)           %v\n", r.Tgcd.Round(time.Nanosecond))
	fmt.Fprintf(w, "Eq. 11 Tgct (translation GC per access)    %v\n", r.Tgct.Round(time.Nanosecond))
	fmt.Fprintf(w, "Eq. 13 WA   model %.3f  measured %.3f (model upper-bounds: it ignores batching)\n",
		r.WA, r.MeasuredWA)
	fmt.Fprintln(w)
}

func printExtensions(w io.Writer, r *sim.ExtResult) {
	fmt.Fprintln(w, "Extension — mapping granularity (§2.1): 64 MiB Financial1, 20000 requests")
	fmt.Fprintf(w, "%-8s %8s %16s\n", "mapping", "WA", "resp time")
	for _, c := range r.Granularity {
		fmt.Fprintf(w, "%-8s %8.3f %16v\n", c.Mapping, c.WA, c.Resp.Round(time.Microsecond))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Extension — GC victim policy under TPFTL (§2.3), Financial1")
	fmt.Fprintf(w, "%-14s %8s %8s %8s\n", "policy", "WA", "Vd", "erases")
	for _, c := range r.GCPolicy {
		fmt.Fprintf(w, "%-14s %8.3f %8.2f %8d\n", c.Policy, c.WA, c.Vd, c.Erases)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Extension — static wear levelling under TPFTL (§2.3), Financial1")
	fmt.Fprintf(w, "%-10s %14s %10s %8s\n", "threshold", "erase spread", "WL moves", "WA")
	for _, c := range r.WearLevel {
		fmt.Fprintf(w, "%-10d %14d %10d %8.3f\n", c.Threshold, c.Spread, c.Moves, c.WA)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Extension — page-level hotness ordering in TPFTL (§4.2), Financial1")
	fmt.Fprintf(w, "%-12s %10s %10s\n", "ordering", "hit ratio", "Prd")
	for _, c := range r.Hotness {
		fmt.Fprintf(w, "%-12s %9.2f%% %9.2f%%\n", c.Ordering, c.Hr*100, c.Prd*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Extension — CFLRU data buffer in front of TPFTL (§2.1), Financial1, 20000 requests")
	fmt.Fprintf(w, "%-12s %14s\n", "buffer pages", "device writes")
	for _, c := range r.DataBuffer {
		fmt.Fprintf(w, "%-12d %14d\n", c.Pages, c.DevWrites)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Extension — mount-time recovery scan (§1): %d pages scanned\n\n", r.RecoveryScannedPages)
}

func fracName(f float64) string {
	if f >= 1 {
		return "1"
	}
	return fmt.Sprintf("1/%d", int(1/f+0.5))
}
