package live

import (
	"bufio"
	"io"
	"strconv"

	"repro/internal/obs"
)

// promSeries is one per-shard metric family the plane derives itself — the
// exported counters are not listed here, WritePrometheus walks
// obs.CounterTable for those. noEpoch marks a family read from the cell's
// admission atomics, which exist before the first epoch; every other value
// needs a published epoch.
type promSeries struct {
	name    string
	typ     string // "counter" or "gauge"
	help    string
	noEpoch bool
	val     func(c *Cell, s *obs.Epoch) float64
}

// promPlane is the metric-family catalog: initialized once, then only read,
// by every scraper at once.
var promPlane = []promSeries{
	{"ftl_telemetry_epochs_total", "counter", "Telemetry epochs published.", false,
		func(_ *Cell, s *obs.Epoch) float64 { return float64(s.Seq) }},
	{"ftl_admitted_total", "counter", "Requests admitted by the shard frontend.", true,
		func(c *Cell, _ *obs.Epoch) float64 { a, _, _ := c.QueueStats(); return float64(a) }},
	{"ftl_sim_time_seconds", "gauge", "Simulated clock at the latest epoch.", false,
		func(_ *Cell, s *obs.Epoch) float64 { return float64(s.SimTimeNS) / 1e9 }},
	{"ftl_hit_ratio", "gauge", "Cumulative translation-cache hit ratio.", false,
		func(_ *Cell, s *obs.Epoch) float64 { return s.HitRatio() }},
	{"ftl_max_response_seconds", "gauge", "Largest response time observed.", false,
		func(_ *Cell, s *obs.Epoch) float64 { return float64(s.MaxResponseNS) / 1e9 }},
	{"ftl_queue_depth_mean", "gauge", "Mean in-flight depth at admission.", true,
		func(c *Cell, _ *obs.Epoch) float64 { return c.MeanDepth() }},
	{"ftl_queue_depth_max", "gauge", "Largest in-flight depth at admission.", true,
		func(c *Cell, _ *obs.Epoch) float64 { _, _, m := c.QueueStats(); return float64(m) }},
}

// WritePrometheus renders the plane's current state in the Prometheus text
// exposition format (version 0.0.4): one series per shard and counter-table
// row (the device folds its totals across metrics resets, so each is
// non-decreasing across scrapes, warm-up resets included), the plane's own
// families, run info, and the sampler's progress view. Reads only published
// epochs and atomics — never the live simulation state.
func WritePrometheus(w io.Writer, p *Plane) error {
	bw := bufio.NewWriter(w)
	cells := p.Cells()

	for i := range obs.CounterTable {
		def := &obs.CounterTable[i]
		if i == 0 || def.Family != obs.CounterTable[i-1].Family {
			header(bw, def.Family, "counter", def.Help)
		}
		for _, c := range cells {
			s := c.Load()
			if s == nil {
				continue
			}
			v, labels := float64(s.Total[i]), shardLabel(c.Shard())
			if def.Seconds {
				v /= 1e9
			}
			if def.Label != "" {
				labels += "," + def.Label
			}
			sample(bw, def.Family, labels, v)
		}
	}
	for _, fam := range promPlane {
		header(bw, fam.name, fam.typ, fam.help)
		for _, c := range cells {
			if s := c.Load(); s != nil || fam.noEpoch {
				sample(bw, fam.name, shardLabel(c.Shard()), fam.val(c, s))
			}
		}
	}

	info := p.Info()
	header(bw, "ftl_run_info", "gauge", "Run metadata (value is always 1).")
	sample(bw, "ftl_run_info",
		`scheme="`+escapeLabel(info.Scheme)+`",workload="`+escapeLabel(info.Workload)+`",shards="`+strconv.Itoa(info.Shards)+`"`, 1)

	if pr, ok := p.Progress(); ok {
		header(bw, "ftl_progress_requests", "gauge", "Requests served so far (all shards).")
		sample(bw, "ftl_progress_requests", "", float64(pr.Requests))
		if pr.Total > 0 {
			header(bw, "ftl_progress_total_requests", "gauge", "Expected requests for the run.")
			sample(bw, "ftl_progress_total_requests", "", float64(pr.Total))
		}
		header(bw, "ftl_requests_per_second", "gauge", "Wall-clock request throughput (sampler).")
		sample(bw, "ftl_requests_per_second", "", pr.ReqPerSec)
		if pr.ETASeconds > 0 {
			header(bw, "ftl_eta_seconds", "gauge", "Estimated wall-clock time to completion.")
			sample(bw, "ftl_eta_seconds", "", pr.ETASeconds)
		}
		if pr.PeakRSSBytes > 0 {
			header(bw, "ftl_peak_rss_bytes", "gauge", "Peak resident set size (memwatch).")
			sample(bw, "ftl_peak_rss_bytes", "", float64(pr.PeakRSSBytes))
		}
	}
	return bw.Flush()
}

func header(w *bufio.Writer, name, typ, help string) {
	w.WriteString("# HELP " + name + " " + help + "\n")
	w.WriteString("# TYPE " + name + " " + typ + "\n")
}

func sample(w *bufio.Writer, name, labels string, v float64) {
	w.WriteString(name)
	if labels != "" {
		w.WriteString("{" + labels + "}")
	}
	w.WriteString(" " + strconv.FormatFloat(v, 'g', -1, 64) + "\n")
}

func shardLabel(shard int) string { return `shard="` + strconv.Itoa(shard) + `"` }

// escapeLabel escapes a Prometheus label value (backslash, quote, newline).
func escapeLabel(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
