package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Which clock a number is read from. Simulated numbers repeat exactly for
// one trace file; host numbers carry the machine's noise.
const (
	hostTime  = "host"
	simTime   = "simulated"
	exactCnt  = "count"
	hostCount = "host count" // allocation counters: host-side, near-exact
)

// simMicros is the unit of a simulated time, kept apart from "us" so that no
// reader of the numbers takes one for a host time: a simulated time repeats to
// the last digit, which in a host time would mean the clock was never read.
const simMicros = "us_sim"

// metricDef documents one metric the benchmark prints. The names, units and
// directions here must equal BENCHMARK.json's; a test and every run check it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Clock  string
	Doc    string
}

// endToEndDefs are the metrics a user of the simulator sees.
var endToEndDefs = []metricDef{
	{"replay_req_per_s", "req/s", "higher", hostTime, "measured requests ÷ median over the repeats of the replay wall at reference-machine speed"},
	{"setup_s", "s", "lower", hostTime, "median over the repeats of the set-up wall at reference-machine speed: open, NewDevice, Format, precondition, warm-up (trace generation excluded)"},
	{"peak_rss_mb", "MiB", "lower", hostTime, "smallest high-water RssAnon of the instrumented repeats, pinned trace"},
	{"sim_resp_mean_us", simMicros, "lower", simTime, "pinned trace: mean arrival-relative response time, Result.M.AvgResponse()"},
	{"sim_resp_p99_us", simMicros, "lower", simTime, "pinned trace: 99th percentile response time, Result.M.Phase(obs.PhaseResponse).Quantile(0.99)"},
	{"sim_write_amp", "ratio", "lower", simTime, "pinned trace: flash page programs ÷ host page writes, Result.M.WriteAmplification(); 1.0 when the host wrote nothing and the flash programmed nothing"},
}

// countDefs are the per-layer metrics read from the instrumented repeats'
// Result (pinned trace) and from the timed repeats; ladderDefs (ladder.go) are the host-time
// per-layer metrics of the traced run.
var countDefs = []metricDef{
	{"core.hit_ratio", "ratio", "higher", exactCnt, "mapping-cache hit ratio Hr"},
	{"core.prd", "ratio", "lower", exactCnt, "probability a replaced entry was dirty, Prd"},
	{"core.prefetched_per_miss", "count", "higher", exactCnt, "entries loaded beyond the demanded one, per cache miss"},
	{"core.batch_cleaned_mean", "count", "higher", exactCnt, "dirty entries cleaned per translation-page writeback"},
	{"ftl.trans_reads_per_kreq", "1/kreq", "lower", exactCnt, "translation-page reads (the double reads) per 1000 requests"},
	{"ftl.trans_writes_per_kreq", "1/kreq", "lower", exactCnt, "translation-page writes, migrations included, per 1000 requests"},
	{"ftl.gc_data_collections", "count", "lower", exactCnt, "data blocks collected"},
	{"ftl.gc_trans_collections", "count", "lower", exactCnt, "translation blocks collected"},
	{"ftl.gc_valid_data_mean", "pages", "lower", exactCnt, "valid pages per collected data block, Vd"},
	{"ftl.gc_valid_trans_mean", "pages", "lower", exactCnt, "valid pages per collected translation block, Vt"},
	{"ftl.gc_map_hit_ratio", "ratio", "higher", exactCnt, "migrated pages whose mapping was cached, Hgcr"},
	{"ftl.gc_time_share", "ratio", "lower", simTime, "GC flash time ÷ all die-busy time"},
	{"ftl.gc_stall_p99_us", simMicros, "lower", simTime, "99th percentile of GC flash time charged inside one request"},
	{"flash.reads_per_req", "1/req", "lower", exactCnt, "flash page reads per request"},
	{"flash.programs_per_req", "1/req", "lower", exactCnt, "flash page programs per request"},
	{"flash.erases_per_kreq", "1/kreq", "lower", exactCnt, "block erases per 1000 requests"},
	{"ssd.queue_depth_mean", "count", "lower", exactCnt, "requests in flight at admission (0 on the queue-depth-1 path, which keeps no queue)"},
	{"ssd.queue_wait_mean_us", simMicros, "lower", simTime, "mean admission wait, admit − arrival"},
	{"ssd.channel_util_max", "ratio", "lower", simTime, "busiest channel's die-busy share of elapsed time"},
	{"ssd.channel_util_min", "ratio", "higher", simTime, "idlest channel's die-busy share of elapsed time"},
	{"host.shard_imbalance", "ratio", "lower", exactCnt, "busiest shard's requests ÷ mean shard's, minus 1 (0 unsharded)"},
	{"sim.allocs_per_kreq", "1/kreq", "lower", hostCount, "heap objects allocated during the replay window per 1000 requests"},
	{"sim.alloc_bytes_per_req", "B/req", "lower", hostCount, "heap bytes allocated during the replay window per request"},
	{"bench.machine_speed", "ratio", "higher", hostTime, "median over the repeats of the yardstick's speed relative to the reference machine (1 = as fast)"},
	{"sim.replay_wall_med_s", "s", "lower", hostTime, "median replay wall over the timed repeats, as the clock read it"},
	{"sim.replay_wall_iqr_rel", "ratio", "lower", hostTime, "interquartile range of the repeats' replay wall ÷ their median, as the clock read it: the noise this run saw"},
	{"sim.cpu_s_per_mreq", "s/Mreq", "lower", hostTime, "process CPU seconds per million requests, fastest repeat's replay window"},
	{"host.cores_busy", "cores", "higher", hostTime, "CPU ÷ wall over the fastest repeat's replay window"},
}

// perLayerDefs is every per-layer metric, counts first.
func perLayerDefs() []metricDef {
	return append(append([]metricDef(nil), countDefs...), ladderDefs...)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// writeAmp is Result.M.WriteAmplification with the read-only case made
// explicit: no host write and no flash program is "no amplification", 1.0,
// where the method reports 0 for want of a denominator.
func writeAmp(m *ftl.Metrics) float64 {
	if m.PageWrites == 0 && m.FlashPrograms == 0 {
		return 1
	}
	return m.WriteAmplification()
}

// meanChannelUtil is the die-busy share of elapsed time averaged over the
// device's channels.
func meanChannelUtil(m *ftl.Metrics) float64 {
	var sum float64
	for c := 0; c < m.Channels; c++ {
		sum += m.ChannelUtilization(c)
	}
	return ratio(sum, float64(m.Channels))
}

// endToEndValues computes the six gated metrics.
func endToEndValues(s spec, ins instrumented, ts []timing) map[string]float64 {
	m := &ins.res.M
	return map[string]float64{
		"replay_req_per_s": float64(s.Measured) / medianOf(ts, func(t timing) float64 { return t.scaled(t.Replay) }),
		"setup_s":          medianOf(ts, func(t timing) float64 { return t.scaled(t.Setup) }),
		"peak_rss_mb":      float64(ins.peakRSS) / (1 << 20),
		"sim_resp_mean_us": us(m.AvgResponse()),
		"sim_resp_p99_us":  us(m.Phase(obs.PhaseResponse).Quantile(0.99)),
		"sim_write_amp":    writeAmp(m),
	}
}

// countValues computes the per-layer metrics that need no ladder.
func countValues(s spec, ins instrumented, ts []timing) map[string]float64 {
	m := &ins.res.M
	reqs := float64(s.Measured)
	var busy time.Duration
	utilMax, utilMin := 0.0, math.Inf(1)
	for c := 0; c < m.Channels; c++ {
		busy += m.ChanBusy[c]
		u := m.ChannelUtilization(c)
		utilMax, utilMin = max(utilMax, u), min(utilMin, u)
	}
	walls := make([]float64, len(ts))
	for i, t := range ts {
		walls[i] = t.Replay.Seconds()
	}
	q1, med, q3 := quartiles(walls)
	best := fastestReplay(ts)
	return map[string]float64{
		"core.hit_ratio":            m.Hr(),
		"core.prd":                  m.Prd(),
		"core.prefetched_per_miss":  ratio(float64(m.PrefetchedLoaded), float64(m.Lookups-m.Hits)),
		"core.batch_cleaned_mean":   ratio(float64(m.BatchCleaned), float64(m.BatchWritebacks)),
		"ftl.trans_reads_per_kreq":  1000 * float64(m.TransReads()) / reqs,
		"ftl.trans_writes_per_kreq": 1000 * float64(m.TransWrites()) / reqs,
		"ftl.gc_data_collections":   float64(m.GCDataCollections),
		"ftl.gc_trans_collections":  float64(m.GCTransCollections),
		"ftl.gc_valid_data_mean":    m.Vd(),
		"ftl.gc_valid_trans_mean":   m.Vt(),
		"ftl.gc_map_hit_ratio":      m.Hgcr(),
		"ftl.gc_time_share":         ratio(float64(m.GCTime), float64(busy)),
		"ftl.gc_stall_p99_us":       us(m.Phase(obs.PhaseGCStall).Quantile(0.99)),
		"flash.reads_per_req":       float64(m.FlashReads) / reqs,
		"flash.programs_per_req":    float64(m.FlashPrograms) / reqs,
		"flash.erases_per_kreq":     1000 * float64(m.FlashErases) / reqs,
		"ssd.queue_depth_mean":      m.AvgQueueDepth(),
		"ssd.queue_wait_mean_us":    us(time.Duration(ratio(float64(m.QueueTime), float64(m.Requests)))),
		"ssd.channel_util_max":      utilMax,
		"ssd.channel_util_min":      utilMin,
		"host.shard_imbalance":      shardImbalance(ins.res.Shards),
		"sim.allocs_per_kreq":       1000 * float64(ins.allocs) / reqs,
		"sim.alloc_bytes_per_req":   float64(ins.allocBytes) / reqs,
		"bench.machine_speed":       medianOf(ts, func(t timing) float64 { return t.Speed }),
		"sim.replay_wall_med_s":     med,
		"sim.replay_wall_iqr_rel":   ratio(q3-q1, med),
		"sim.cpu_s_per_mreq":        1e6 * best.ReplayCPU.Seconds() / reqs,
		"host.cores_busy":           ratio(best.ReplayCPU.Seconds(), best.Replay.Seconds()),
	}
}

func shardImbalance(shards []sim.ShardRun) float64 {
	if len(shards) < 2 {
		return 0
	}
	var sum, most int64
	for _, sh := range shards {
		sum += sh.M.Requests
		most = max(most, sh.M.Requests)
	}
	return ratio(float64(most)*float64(len(shards)), float64(sum)) - 1
}

// contract is BENCHMARK.json, the file the referee reads.
type contract struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// bound returns the regression bound of an end-to-end metric.
func (c *contract) bound(name string) float64 {
	for _, m := range c.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

// checkNames reports every way the metrics a run produced differ from the
// ones the contract lists: missing, unlisted, or listed with another unit or
// direction.
func checkNames(listed []contractMetric, defs []metricDef, values map[string]float64) []string {
	var problems []string
	want := map[string]contractMetric{}
	for _, m := range listed {
		want[m.Name] = m
	}
	have := map[string]bool{}
	for _, d := range defs {
		have[d.Name] = true
		w, ok := want[d.Name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("metric %s is printed but BENCHMARK.json does not list it", d.Name))
		case w.Unit != d.Unit || w.Better != d.Better:
			problems = append(problems, fmt.Sprintf("metric %s is %s/%s here, %s/%s in BENCHMARK.json", d.Name, d.Unit, d.Better, w.Unit, w.Better))
		}
		if v, ok := values[d.Name]; !ok {
			problems = append(problems, fmt.Sprintf("metric %s was not measured", d.Name))
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is %v", d.Name, v))
		}
	}
	for _, m := range listed {
		if !have[m.Name] {
			problems = append(problems, fmt.Sprintf("metric %s is in BENCHMARK.json but not printed", m.Name))
		}
	}
	for name := range values {
		if !have[name] {
			problems = append(problems, fmt.Sprintf("value %s has no definition", name))
		}
	}
	sort.Strings(problems)
	return problems
}
