package ftl

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestResponseHistogram(t *testing.T) {
	var m Metrics
	resp := m.Phase(obs.PhaseResponse)
	if resp.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
	// 90 fast (≈100 µs) + 10 slow (≈10 ms) responses.
	for i := 0; i < 90; i++ {
		m.ObserveResponse(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		m.ObserveResponse(10 * time.Millisecond)
	}
	p50 := resp.Quantile(0.5)
	p99 := resp.Quantile(0.99)
	if p50 < 64*time.Microsecond || p50 > 256*time.Microsecond {
		t.Fatalf("p50 = %v, want ≈100 µs", p50)
	}
	if p99 < 8*time.Millisecond || p99 > 32*time.Millisecond {
		t.Fatalf("p99 = %v, want ≈10 ms", p99)
	}
	if p99 <= p50 {
		t.Fatal("p99 must exceed p50")
	}
}

func TestResponseHistogramExtremes(t *testing.T) {
	var m Metrics
	m.ObserveResponse(0)
	m.ObserveResponse(time.Hour)
	resp := m.Phase(obs.PhaseResponse)
	if resp.Count != 2 {
		t.Fatalf("count = %d, want both extremes counted", resp.Count)
	}
	if resp.Min() != 0 {
		t.Fatalf("min = %v, want the zero response kept", resp.Min())
	}
	if p := resp.Quantile(1); p <= 0 {
		t.Fatalf("p100 = %v", p)
	}
}

// notExported lists the scalar Metrics fields that obs.CounterTable leaves
// out on purpose, each with the reason. Everything else must reach
// Counters(); TestScalarFieldsExportedAndMerged holds the two lists together.
var notExported = map[string]string{
	"MaxResponse":      "a watermark, not a sum: exported as the ftl_max_response_seconds gauge",
	"Elapsed":          "a window length, not a count: the snapshot's sim_time_ns carries the clock",
	"MaxQueueDepth":    "a watermark filled by the frontend after the run: the ftl_queue_depth_max gauge reads the cell",
	"QueueDepthSum":    "filled by the frontend after the run: the ftl_queue_depth_mean gauge reads the cell",
	"UnmappedReads":    "end-of-run report only: reads that reach no flash page",
	"TrimRequests":     "end-of-run report only: trimmed_pages is the exported TRIM volume",
	"FlushStalls":      "end-of-run report only: flushes is the exported barrier count",
	"FUAWrites":        "end-of-run report only",
	"Replacements":     "end-of-run report only: denominator of Prd",
	"DirtyReplaced":    "end-of-run report only: numerator of Prd",
	"BatchWritebacks":  "end-of-run report only",
	"BatchCleaned":     "end-of-run report only",
	"GCDataMigrations": "end-of-run report only: flash_programs includes the moves",
	"GCMapUpdates":     "end-of-run report only: denominator of Hgcr",
	"GCMapHits":        "end-of-run report only: numerator of Hgcr",
	"GCDataValidSum":   "end-of-run report only: numerator of Vd",
	"GCTransValidSum":  "end-of-run report only: numerator of Vt",
	"WearLevelMoves":   "end-of-run report only",
	"InjectedFaults":   "end-of-run report only (fault-injection runs)",
	"FaultRetries":     "end-of-run report only (fault-injection runs)",
}

// TestScalarFieldsExportedAndMerged is the guard against a counter added to
// Metrics and forgotten elsewhere: every int64 or time.Duration field, set to
// 1 on a zero Metrics, must either move Counters() or be listed in
// notExported, and must survive Merge (as a sum or a maximum).
func TestScalarFieldsExportedAndMerged(t *testing.T) {
	typ := reflect.TypeOf(Metrics{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Int64 { // int64 and time.Duration
			continue
		}
		var m Metrics
		reflect.ValueOf(&m).Elem().Field(i).SetInt(1)
		exported := m.Counters() != obs.Counters{}
		if _, listed := notExported[f.Name]; exported == listed {
			t.Errorf("%s: reaches Counters() = %v, listed in notExported = %v; bind it to an obs.CounterTable row in Counters() or list it with a reason",
				f.Name, exported, listed)
		}
		var sum Metrics
		sum.Merge(&m)
		if got := reflect.ValueOf(sum).Field(i).Int(); got != 1 {
			t.Errorf("%s: Merge of a zero Metrics with %s=1 gives %d; add the field to Merge", f.Name, f.Name, got)
		}
	}
	for name := range notExported {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("notExported names %s, which Metrics does not have", name)
		}
	}
}
