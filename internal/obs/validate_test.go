package obs_test

// The tests of the exports against their validators live outside package
// obs: the validators (obstest) import it.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	. "repro/internal/obs"
	"repro/internal/obs/obstest"
)

func TestTracerEmitsValidChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.ProcessName(0, "flash dies")
	tr.ProcessName(1, "requests")
	tr.ThreadName(0, 0)
	tr.ThreadName(1, 1)
	p := tr.FlashOp(OpTransRead, 0, 0, 0, 25*time.Microsecond, 0)
	tr.FlashOp(OpDataRead, 1, 1, 25*time.Microsecond, 50*time.Microsecond, p)
	tr.RequestSpan("read", 1, 0, 50*time.Microsecond)
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	n, err := obstest.ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateTrace: %v\n%s", err, buf.String())
	}
	if n != 8 {
		t.Fatalf("event count = %d, want 8", n)
	}

	// Decode and spot-check the flash op encoding.
	var doc obstest.TraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var x *obstest.TraceEvent
	for i := range doc.TraceEvents {
		if doc.TraceEvents[i].Ph == "X" && doc.TraceEvents[i].Name == "data_read" {
			x = &doc.TraceEvents[i]
		}
	}
	if x == nil {
		t.Fatalf("data_read X event missing")
	}
	if x.TID != 1 || x.TS != 25.0 || x.Dur != 25.0 {
		t.Fatalf("data_read event wrong: %+v", *x)
	}
}

func TestValidateTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty events":      `{"traceEvents":[]}`,
		"unknown phase":     `{"traceEvents":[{"name":"x","ph":"Q"}]}`,
		"empty name":        `{"traceEvents":[{"name":"","ph":"X","ts":0,"dur":1}]}`,
		"negative duration": `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-1}]}`,
		"unmatched begin":   `{"traceEvents":[{"name":"x","ph":"b","cat":"request","id":1,"ts":0}]}`,
		"end without begin": `{"traceEvents":[{"name":"x","ph":"e","cat":"request","id":1,"ts":0}]}`,
		"not json":          `]`,
	}
	for name, doc := range cases {
		if _, err := obstest.ValidateTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: ValidateTrace accepted %s", name, doc)
		}
	}
}

func TestValidateMetricsJSONL(t *testing.T) {
	mkRec := func(seq, simt, reqs int64) Epoch {
		rec := Epoch{Seq: seq, SimTimeNS: simt, Requests: reqs}
		rec.Total[CtrRequests] = reqs
		rec.Delta[CtrRequests] = reqs / seq // every stream here grows by a constant step
		for p := Phase(0); p < NumPhases; p++ {
			var h Histogram
			h.Record(time.Duration(seq) * time.Microsecond)
			rec.Phases = append(rec.Phases, h.Summary(p.String()))
		}
		return rec
	}
	var buf bytes.Buffer
	w := NewMetricsWriter(&buf)
	for i := int64(1); i <= 3; i++ {
		rec := mkRec(i, i*1000, i*10)
		if err := w.Write(&rec); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	n, err := obstest.ValidateMetricsJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateMetricsJSONL: %v", err)
	}
	if n != 3 {
		t.Fatalf("record count = %d, want 3", n)
	}

	// Rejections.
	bad := map[string]func() []byte{
		"seq gap": func() []byte {
			var b bytes.Buffer
			w := NewMetricsWriter(&b)
			r1, r3 := mkRec(1, 1000, 1), mkRec(3, 3000, 3)
			w.Write(&r1)
			w.Write(&r3)
			w.Flush()
			return b.Bytes()
		},
		"time backwards": func() []byte {
			var b bytes.Buffer
			w := NewMetricsWriter(&b)
			r1, r2 := mkRec(1, 5000, 1), mkRec(2, 1000, 2)
			w.Write(&r1)
			w.Write(&r2)
			w.Flush()
			return b.Bytes()
		},
		"flash_reads backwards": func() []byte {
			var b bytes.Buffer
			w := NewMetricsWriter(&b)
			r1, r2 := mkRec(1, 1000, 1), mkRec(2, 2000, 2)
			r1.Total[CtrFlashReads], r2.Total[CtrFlashReads], r2.Delta[CtrFlashReads] = 5, 4, -1
			w.Write(&r1)
			w.Write(&r2)
			w.Flush()
			return b.Bytes()
		},
		"delta.hits disagrees with totals": func() []byte {
			var b bytes.Buffer
			w := NewMetricsWriter(&b)
			r1, r2 := mkRec(1, 1000, 1), mkRec(2, 2000, 2)
			r1.Total[CtrHits], r2.Total[CtrHits], r2.Delta[CtrHits] = 3, 5, 1
			w.Write(&r1)
			w.Write(&r2)
			w.Flush()
			return b.Bytes()
		},
		"unknown counter": func() []byte {
			var b bytes.Buffer
			w := NewMetricsWriter(&b)
			r := mkRec(1, 1000, 1)
			w.Write(&r)
			w.Flush()
			return bytes.Replace(b.Bytes(), []byte(`"total":{`), []byte(`"total":{"bogus":1,`), 1)
		},
		"missing phase": func() []byte {
			var b bytes.Buffer
			w := NewMetricsWriter(&b)
			r := mkRec(1, 1000, 1)
			r.Phases = r.Phases[:NumPhases-1]
			w.Write(&r)
			w.Flush()
			return b.Bytes()
		},
		"unknown phase": func() []byte {
			var b bytes.Buffer
			w := NewMetricsWriter(&b)
			r := mkRec(1, 1000, 1)
			r.Phases[0].Phase = "bogus"
			w.Write(&r)
			w.Flush()
			return b.Bytes()
		},
		"quantiles out of order": func() []byte {
			var b bytes.Buffer
			w := NewMetricsWriter(&b)
			r := mkRec(1, 1000, 1)
			r.Phases[0].Count = 5
			r.Phases[0].P50NS = 100
			r.Phases[0].P99NS = 50
			w.Write(&r)
			w.Flush()
			return b.Bytes()
		},
		"empty stream": func() []byte { return nil },
	}
	for name, gen := range bad {
		if _, err := obstest.ValidateMetricsJSONL(bytes.NewReader(gen())); err == nil {
			t.Errorf("%s: validator accepted bad stream", name)
		}
	}
}
