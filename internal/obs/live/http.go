package live

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// jsonShard is one shard's entry in the /snapshot document: the latest
// epoch (if any) with the keys of a -metrics-out line, its max response and
// hit ratio, and the frontend queue stats of the same cell.
type jsonShard struct {
	Shard         int        `json:"shard"`
	Epoch         *obs.Epoch `json:"epoch,omitempty"`
	MaxResponseNS int64      `json:"max_response_ns"`
	Admitted      int64      `json:"admitted"`
	MeanDepth     float64    `json:"mean_depth"`
	MaxDepth      int64      `json:"max_depth"`
	HitRatio      float64    `json:"hit_ratio"`
}

// jsonDoc is the /snapshot response: run metadata, per-shard epochs, the
// cross-shard counter fold, and the sampler's progress view when present.
type jsonDoc struct {
	Run      RunInfo      `json:"run"`
	Shards   []jsonShard  `json:"shards"`
	Totals   obs.Counters `json:"totals"`
	Progress *Progress    `json:"progress,omitempty"`
}

// SnapshotDoc assembles the JSON snapshot document from published epochs
// and atomics only. Exposed for expvar publication from cmd.
func SnapshotDoc(p *Plane) any {
	doc := jsonDoc{Run: p.Info(), Shards: []jsonShard{}}
	for _, c := range p.Cells() {
		js := jsonShard{Shard: c.Shard()}
		admitted, _, maxDepth := c.QueueStats()
		js.Admitted = admitted
		js.MaxDepth = maxDepth
		js.MeanDepth = c.MeanDepth()
		if s := c.Load(); s != nil {
			js.Epoch, js.MaxResponseNS = s, s.MaxResponseNS
			js.HitRatio = s.HitRatio()
			doc.Totals = doc.Totals.Add(s.Total)
		}
		doc.Shards = append(doc.Shards, js)
	}
	if pr, ok := p.Progress(); ok {
		doc.Progress = &pr
	}
	return doc
}

// WriteJSON renders the /snapshot document.
func WriteJSON(w io.Writer, p *Plane) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(SnapshotDoc(p))
}

// NewMux returns the telemetry HTTP mux:
//
//	/metrics      Prometheus text exposition
//	/snapshot     JSON snapshot document
//	/quit         POST ends a -telemetry-linger wait (when quit != nil)
//	/debug/vars   expvar
//	/debug/pprof  net/http/pprof profiles
//
// Every handler reads only published epochs and atomics, so scraping is safe
// at any moment of the run.
func NewMux(p *Plane, quit func()) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, p)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteJSON(w, p)
	})
	mux.HandleFunc("/quit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		w.WriteHeader(http.StatusOK)
		if quit != nil {
			quit()
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
