package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// aaRuns is the number of invocations per workload in one A/A set, seeds
// 1..aaRuns: the referee's own set size.
const aaRuns = 10

// runAA is the A/A mode: `sets` full sets of the same code, each aaRuns
// invocations per workload, every invocation its own process (what the
// referee does). For each end-to-end metric and workload
// it prints each set's median and spread and how far the set medians
// disagree, against the metric's bound. It returns 1 if any pair disagrees
// by more than its bound.
func runAA(c config, ct *contract, sets int) int {
	if sets < 2 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs at least 2 sets")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	type key struct{ workload, metric string }
	medians := map[key][]float64{}
	spreads := map[key][]float64{}
	for set := 0; set < sets; set++ {
		for _, s := range specs() {
			samples := map[string][]float64{}
			for seed := int64(1); seed <= aaRuns; seed++ {
				fmt.Fprintf(os.Stderr, "set %d %s seed %d\n", set+1, s.Name, seed)
				res, err := runChild(self, c, s.Name, seed)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: set %d %s seed %d: %v\n", set+1, s.Name, seed, err)
					return 1
				}
				for _, d := range endToEndDefs {
					samples[d.Name] = append(samples[d.Name], res.Metrics[d.Name].Value)
					fmt.Fprintf(os.Stderr, "  %s %.6g\n", d.Name, res.Metrics[d.Name].Value)
				}
			}
			for _, d := range endToEndDefs {
				q1, med, q3 := quartiles(samples[d.Name])
				k := key{s.Name, d.Name}
				medians[k] = append(medians[k], med)
				spreads[k] = append(spreads[k], ratio(q3-q1, med))
			}
		}
	}

	fmt.Printf("A/A: %d sets x %d runs per workload (seeds 1..%d), %d s budget per run\n\n", sets, aaRuns, aaRuns, c.seconds)
	fmt.Println("| workload | metric | set medians | widest IQR/median | medians disagree by | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|")
	code := 0
	for _, s := range specs() {
		for _, d := range endToEndDefs {
			k := key{s.Name, d.Name}
			lo, hi, widest := medians[k][0], medians[k][0], 0.0
			cells := ""
			for i, m := range medians[k] {
				lo, hi, widest = min(lo, m), max(hi, m), max(widest, spreads[k][i])
				cells += fmt.Sprintf("%.6g ", m)
			}
			disagree := ratio(hi-lo, lo)
			verdict := "ok"
			if bound := ct.bound(d.Name); disagree > bound || widest > bound {
				verdict, code = "OVER", 1
			}
			fmt.Printf("| %s | %s (%s) | %s| %.2f %% | %.2f %% | %.1f %% | %s |\n", s.Name, d.Name, d.Unit, cells, 100*widest, 100*disagree, 100*ct.bound(d.Name), verdict)
		}
	}
	return code
}

// runChild runs one workload in a fresh process and parses its result line.
func runChild(self string, c config, workload string, seed int64) (*result, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(c.seconds),
		"-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported incorrect: %d of %d failed", res.Failed, res.Attempted)
	}
	return &res, nil
}
