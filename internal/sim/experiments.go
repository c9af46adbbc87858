package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// ExpConfig scales the paper-evaluation experiments. The zero value is
// filled by Defaults.
type ExpConfig struct {
	// Requests per run (the paper's traces contain millions of page
	// accesses; the default regenerates the shapes with fewer).
	Requests int
	// MSRScale rescales the 16 GB MSR address spaces (0 keeps 16 GB; the
	// default shrinks them so a full sweep runs in minutes). The cache
	// budget follows the paper's convention at the scaled size, so the
	// cache:table ratio (1/128) is preserved.
	MSRScale int64
	// Seed for workload generation.
	Seed int64
	// Warmup requests served before measuring (cold-cache transient).
	Warmup int
	// Precondition passes of random whole-device rewrites before
	// measuring (GC steady state); negative disables.
	Precondition float64
	// AllSchemes adds the related-work schemes (CDFTL, ZFTL) to the
	// comparison sweep beyond the paper's figure set.
	AllSchemes bool
}

// Defaults fills unset fields.
func (e ExpConfig) Defaults() ExpConfig {
	if e.Requests == 0 {
		e.Requests = 300_000
	}
	if e.MSRScale == 0 {
		e.MSRScale = 2 << 30
	}
	if e.Seed == 0 {
		e.Seed = 42
	}
	if e.Warmup == 0 {
		e.Warmup = e.Requests / 10
	}
	if e.Precondition == 0 {
		e.Precondition = 1
	}
	if e.Precondition < 0 {
		e.Precondition = 0
	}
	return e
}

// profiles returns the four paper workloads with MSR scaling applied.
func (e ExpConfig) profiles() []workload.Profile {
	ps := workload.DefaultProfiles()
	for i := range ps {
		if ps[i].AddressSpace > e.MSRScale {
			ps[i] = ps[i].Scale(e.MSRScale)
		}
	}
	return ps
}

// runAll executes independent runs on min(GOMAXPROCS, len(opts)) workers and
// returns their results in opts order, or the error of the first run in that
// order that failed — what a serial loop over opts would return. Workers take
// runs in index order and stop taking new ones after a failure, so every run
// before the first failing one has been started and is waited for.
func runAll(opts []Options) ([]*Result, error) {
	res := make([]*Result, len(opts))
	errs := make([]error, len(opts))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(opts)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(opts) {
					return
				}
				if res[i], errs[i] = Run(opts[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return res, nil
}

// ComparisonCell is one (workload, scheme) measurement set, covering
// Figs. 6a–f and 7a plus Table 2.
type ComparisonCell struct {
	Workload string
	Scheme   Scheme
	Prd      float64       // Fig. 6a
	Hr       float64       // Fig. 6b
	TReads   int64         // Fig. 6c (normalize to DFTL)
	TWrites  int64         // Fig. 6d (normalize to DFTL)
	Resp     time.Duration // Fig. 6e (normalize to DFTL)
	WA       float64       // Fig. 6f
	Erases   int64         // Fig. 7a (normalize to DFTL)
}

// RunComparison reproduces the paper's main comparison: the four schemes
// over the four workloads (Figs. 6 and 7a; Table 2 derives from the DFTL
// and Optimal columns).
func (e ExpConfig) RunComparison() ([]ComparisonCell, error) {
	e = e.Defaults()
	schemes := Schemes()
	if e.AllSchemes {
		schemes = []Scheme{SchemeDFTL, SchemeTPFTL, SchemeSFTL, SchemeCDFTL, SchemeZFTL, SchemeOptimal}
	}
	var opts []Options
	for _, p := range e.profiles() {
		for _, s := range schemes {
			opts = append(opts, Options{
				Scheme:           s,
				Profile:          p,
				Requests:         e.Requests,
				Seed:             e.Seed,
				ResetAfterWarmup: e.Warmup, Precondition: e.Precondition,
			})
		}
	}
	results, err := runAll(opts)
	if err != nil {
		return nil, err
	}
	var out []ComparisonCell
	for _, r := range results {
		out = append(out, ComparisonCell{
			Workload: r.Workload,
			Scheme:   r.Scheme,
			Prd:      r.M.Prd(),
			Hr:       r.M.Hr(),
			TReads:   r.M.TransReads(),
			TWrites:  r.M.TransWrites(),
			Resp:     r.M.AvgResponse(),
			WA:       r.M.WriteAmplification(),
			Erases:   r.M.FlashErases,
		})
	}
	return out, nil
}

// Table2Row is one workload's deviation of DFTL from the optimal FTL:
// Performance = 1 − resp(Optimal)/resp(DFTL), Erasure = 1 − erases(Optimal)/
// erases(DFTL).
type Table2Row struct {
	Workload    string
	Performance float64
	Erasure     float64
}

// Table2 derives the paper's Table 2 from comparison cells.
func Table2(cells []ComparisonCell) []Table2Row {
	type pair struct{ dftl, opt *ComparisonCell }
	byWorkload := map[string]*pair{}
	var order []string
	for i := range cells {
		c := &cells[i]
		p := byWorkload[c.Workload]
		if p == nil {
			p = &pair{}
			byWorkload[c.Workload] = p
			order = append(order, c.Workload)
		}
		switch c.Scheme {
		case SchemeDFTL:
			p.dftl = c
		case SchemeOptimal:
			p.opt = c
		}
	}
	var out []Table2Row
	for _, w := range order {
		p := byWorkload[w]
		if p.dftl == nil || p.opt == nil {
			continue
		}
		row := Table2Row{Workload: w}
		if p.dftl.Resp > 0 {
			row.Performance = 1 - float64(p.opt.Resp)/float64(p.dftl.Resp)
		}
		if p.dftl.Erases > 0 {
			row.Erasure = 1 - float64(p.opt.Erases)/float64(p.dftl.Erases)
		}
		out = append(out, row)
	}
	return out
}

// AblationCell is one TPFTL configuration's measurements on Financial1
// (Figs. 7b, 7c, 8a, 8b). DFTL is included as the external baseline, as in
// the paper's figures.
type AblationCell struct {
	Variant string // "DFTL", "–", "b", "c", "bc", "r", "s", "rs", "rsbc"
	Prd     float64
	Hr      float64
	Resp    time.Duration
	WA      float64
}

// AblationVariants returns the paper's eight TPFTL configurations in figure
// order.
func AblationVariants(cacheBytes int64) []core.Config {
	base := func() core.Config {
		return core.Config{CacheBytes: cacheBytes, CompressEntries: true}
	}
	mk := func(mut func(*core.Config)) core.Config {
		c := base()
		mut(&c)
		return c
	}
	return []core.Config{
		base(), // "–"
		mk(func(c *core.Config) { c.BatchUpdate = true }),
		mk(func(c *core.Config) { c.CleanFirst = true }),
		mk(func(c *core.Config) { c.BatchUpdate = true; c.CleanFirst = true }),
		mk(func(c *core.Config) { c.RequestPrefetch = true }),
		mk(func(c *core.Config) { c.SelectivePrefetch = true }),
		mk(func(c *core.Config) { c.RequestPrefetch = true; c.SelectivePrefetch = true }),
		mk(func(c *core.Config) {
			c.RequestPrefetch = true
			c.SelectivePrefetch = true
			c.BatchUpdate = true
			c.CleanFirst = true
		}),
	}
}

// RunAblation reproduces Figs. 7b/7c/8a/8b: the technique ablation on
// Financial1.
func (e ExpConfig) RunAblation() ([]AblationCell, error) {
	e = e.Defaults()
	p := workload.Financial1()
	opts := []Options{{
		Scheme: SchemeDFTL, Profile: p, Requests: e.Requests,
		Seed: e.Seed, ResetAfterWarmup: e.Warmup, Precondition: e.Precondition,
	}}
	for _, cfg := range AblationVariants(0) {
		opts = append(opts, Options{
			Scheme: SchemeTPFTL, TPFTL: &cfg, Profile: p,
			Requests: e.Requests, Seed: e.Seed, ResetAfterWarmup: e.Warmup, Precondition: e.Precondition,
		})
	}
	results, err := runAll(opts)
	if err != nil {
		return nil, err
	}
	var out []AblationCell
	for _, r := range results {
		variant := r.Variant
		if r.Scheme == SchemeDFTL {
			variant = "DFTL"
		}
		out = append(out, AblationCell{
			Variant: variant,
			Prd:     r.M.Prd(), Hr: r.M.Hr(),
			Resp: r.M.AvgResponse(), WA: r.M.WriteAmplification(),
		})
	}
	return out, nil
}

// SweepCell is one (workload, cache-fraction) TPFTL measurement
// (Figs. 8c, 9a, 9b, 9c).
type SweepCell struct {
	Workload string
	Fraction float64
	Prd      float64
	Hr       float64
	Resp     time.Duration
	WA       float64
}

// SweepFractions returns the paper's cache-size axis: 1/128 (the default
// budget) up to 1 (the whole table cached).
func SweepFractions() []float64 {
	return []float64{1.0 / 128, 1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1}
}

// RunCacheSweep reproduces Figs. 8c and 9: TPFTL across cache sizes.
func (e ExpConfig) RunCacheSweep() ([]SweepCell, error) {
	e = e.Defaults()
	var opts []Options
	for _, p := range e.profiles() {
		for _, frac := range SweepFractions() {
			opts = append(opts, Options{
				Scheme: SchemeTPFTL, Profile: p,
				Requests: e.Requests, Seed: e.Seed,
				CacheFraction: frac, ResetAfterWarmup: e.Warmup, Precondition: e.Precondition,
			})
		}
	}
	results, err := runAll(opts)
	if err != nil {
		return nil, err
	}
	var out []SweepCell
	for i, r := range results {
		out = append(out, SweepCell{
			Workload: r.Workload,
			Fraction: opts[i].CacheFraction,
			Prd:      r.M.Prd(),
			Hr:       r.M.Hr(),
			Resp:     r.M.AvgResponse(),
			WA:       r.M.WriteAmplification(),
		})
	}
	return out, nil
}

// UtilizationCell is one (workload, fraction) cache-space-utilization
// improvement of TPFTL over DFTL (Fig. 10): the relative increase in the
// mean number of cached mapping entries under the same budget.
type UtilizationCell struct {
	Workload    string
	Fraction    float64
	Improvement float64
}

// RunSpaceUtilization reproduces Fig. 10.
func (e ExpConfig) RunSpaceUtilization() ([]UtilizationCell, error) {
	e = e.Defaults()
	sampleEvery := int64(10_000)
	meanEntries := func(samples []Sample) float64 {
		if len(samples) == 0 {
			return 0
		}
		var sum float64
		for _, s := range samples {
			sum += float64(s.Entries)
		}
		return sum / float64(len(samples))
	}
	// Each cell is a (TPFTL, DFTL) pair of runs, adjacent in opts.
	var opts []Options
	for _, p := range e.profiles() {
		for _, frac := range SweepFractions()[:6] { // beyond 1/4 both cache everything
			for _, s := range []Scheme{SchemeTPFTL, SchemeDFTL} {
				opts = append(opts, Options{
					Scheme: s, Profile: p,
					Requests: e.Requests, Seed: e.Seed,
					CacheFraction: frac, SampleEvery: sampleEvery,
					Precondition: e.Precondition,
				})
			}
		}
	}
	results, err := runAll(opts)
	if err != nil {
		return nil, err
	}
	var out []UtilizationCell
	for i := 0; i < len(results); i += 2 {
		tpftl, dftl := meanEntries(results[i].Samples), meanEntries(results[i+1].Samples)
		cell := UtilizationCell{Workload: results[i].Workload, Fraction: opts[i].CacheFraction}
		if dftl > 0 {
			cell.Improvement = tpftl/dftl - 1
		}
		out = append(out, cell)
	}
	return out, nil
}

// DistributionResult holds the Fig. 1 measurements for one workload: the
// per-sample average entries per cached translation page, and the CDF of
// dirty entries per cached page.
type DistributionResult struct {
	Workload string
	// AvgEntriesPerTP is the time series of Fig. 1a.
	AvgEntriesPerTP []float64
	// MeanDirtyPerTP is the dashed-line average of Fig. 1b.
	MeanDirtyPerTP float64
	// DirtyCDF[k] is the fraction of cached translation pages with ≤ k
	// dirty entries, aggregated over all samples (Fig. 1b).
	DirtyCDF []float64
}

// RunCacheDistribution reproduces Fig. 1 (DFTL cache contents sampled every
// 10,000 user page accesses).
func (e ExpConfig) RunCacheDistribution() ([]DistributionResult, error) {
	e = e.Defaults()
	var opts []Options
	for _, p := range e.profiles() {
		opts = append(opts, Options{
			Scheme: SchemeDFTL, Profile: p,
			Requests: e.Requests, Seed: e.Seed,
			SampleEvery: 10_000, Precondition: e.Precondition,
		})
	}
	results, err := runAll(opts)
	if err != nil {
		return nil, err
	}
	var out []DistributionResult
	for _, r := range results {
		res := DistributionResult{Workload: r.Workload}
		hist := map[int]int{}
		totalPages, totalDirty := 0, 0
		for _, s := range r.Samples {
			if s.TPNodes > 0 {
				res.AvgEntriesPerTP = append(res.AvgEntriesPerTP,
					float64(s.Entries)/float64(s.TPNodes))
			}
			for d, n := range s.DirtyHist {
				hist[d] += n
				totalPages += n
				totalDirty += d * n
			}
		}
		if totalPages > 0 {
			res.MeanDirtyPerTP = float64(totalDirty) / float64(totalPages)
			maxD := 0
			for d := range hist {
				if d > maxD {
					maxD = d
				}
			}
			res.DirtyCDF = make([]float64, maxD+1)
			cum := 0
			for d := 0; d <= maxD; d++ {
				cum += hist[d]
				res.DirtyCDF[d] = float64(cum) / float64(totalPages)
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// SpatialResult holds the Fig. 2b measurement: the number of cached
// translation pages in DFTL over time on Financial1.
type SpatialResult struct {
	Workload     string
	PageAccesses []int64
	TPNodes      []int
}

// RunSpatialLocality reproduces Fig. 2b.
func (e ExpConfig) RunSpatialLocality() (*SpatialResult, error) {
	e = e.Defaults()
	p := workload.Financial1()
	r, err := Run(Options{
		Scheme: SchemeDFTL, Profile: p,
		Requests: e.Requests, Seed: e.Seed,
		SampleEvery: 2_000, Precondition: e.Precondition,
	})
	if err != nil {
		return nil, err
	}
	res := &SpatialResult{Workload: p.Name}
	for _, s := range r.Samples {
		res.PageAccesses = append(res.PageAccesses, s.PageAccesses)
		res.TPNodes = append(res.TPNodes, s.TPNodes)
	}
	return res, nil
}

// NormalizeToDFTL returns value/baseline where baseline is the DFTL cell of
// the same workload; figure printers use it for Figs. 6c/6d/6e/7a.
func NormalizeToDFTL(cells []ComparisonCell, get func(ComparisonCell) float64) map[string]map[Scheme]float64 {
	base := map[string]float64{}
	for _, c := range cells {
		if c.Scheme == SchemeDFTL {
			base[c.Workload] = get(c)
		}
	}
	out := map[string]map[Scheme]float64{}
	for _, c := range cells {
		if out[c.Workload] == nil {
			out[c.Workload] = map[Scheme]float64{}
		}
		if b := base[c.Workload]; b > 0 {
			out[c.Workload][c.Scheme] = get(c) / b
		}
	}
	return out
}

// SchemesOf lists the distinct schemes in cells, in first-seen order.
func SchemesOf(cells []ComparisonCell) []Scheme {
	seen := map[Scheme]bool{}
	var out []Scheme
	for _, c := range cells {
		if !seen[c.Scheme] {
			seen[c.Scheme] = true
			out = append(out, c.Scheme)
		}
	}
	return out
}

// WorkloadsOf lists the distinct workloads in cells, in first-seen order.
func WorkloadsOf(cells []ComparisonCell) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range cells {
		if !seen[c.Workload] {
			seen[c.Workload] = true
			out = append(out, c.Workload)
		}
	}
	return out
}

// FmtPct formats a ratio as a percentage.
func FmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// SortSweep orders sweep cells by workload then fraction (stable output).
func SortSweep(cells []SweepCell) {
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].Workload != cells[j].Workload {
			return cells[i].Workload < cells[j].Workload
		}
		return cells[i].Fraction < cells[j].Fraction
	})
}
