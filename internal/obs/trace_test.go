package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTracerMicrosecondPrecision(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.FlashOp(OpErase, 2, 0, 1234567*time.Nanosecond, 1500000*time.Nanosecond, 0)
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s := buf.String()
	if !strings.Contains(s, `"ts":1234.567`) {
		t.Fatalf("ts not emitted with ns precision: %s", s)
	}
	if !strings.Contains(s, `"dur":265.433`) {
		t.Fatalf("dur not emitted with ns precision: %s", s)
	}
}

func TestTracerEventIDsChain(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	a := tr.FlashOp(OpDataRead, 0, 0, 0, 1000, 0)
	b := tr.FlashOp(OpDataRead, 0, 0, 1000, 2000, a)
	if a != 1 || b != 2 {
		t.Fatalf("event ids = %d,%d, want 1,2", a, b)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !strings.Contains(buf.String(), `"parent":1`) {
		t.Fatalf("parent id not recorded: %s", buf.String())
	}
}

func TestPhaseAndOpNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		name := p.String()
		if name == "" || name == "unknown" || seen[name] {
			t.Fatalf("phase %d has bad name %q", p, name)
		}
		seen[name] = true
		got, ok := PhaseByName(name)
		if !ok || got != p {
			t.Fatalf("PhaseByName(%q) = %v,%v", name, got, ok)
		}
	}
	if _, ok := PhaseByName("bogus"); ok {
		t.Fatalf("PhaseByName accepted bogus name")
	}
	for o := Op(0); o < NumOps; o++ {
		if o.String() == "" {
			t.Fatalf("op %d has empty name", o)
		}
	}
	if OpDataRead.GC() != OpGCDataRead || OpErase.GC() != OpGCErase {
		t.Fatalf("Op.GC mapping wrong")
	}
	if OpGCErase.GC() != OpGCErase || OpUnknown.GC() != OpUnknown {
		t.Fatalf("Op.GC must be identity on GC/unknown ops")
	}
}
