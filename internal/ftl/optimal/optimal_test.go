package optimal

import (
	"math/rand"
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/trace"
)

func newDevice(t *testing.T) (*ftl.Device, *FTL) {
	t.Helper()
	cfg := ftl.Config{
		LogicalBytes:  16 << 20,
		PageSize:      4096,
		PagesPerBlock: 32,
		OverProvision: 0.15,
		CacheBytes:    1024,
	}
	tr := New(cfg.LogicalPages())
	d, err := ftl.NewDevice(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Format(); err != nil {
		t.Fatal(err)
	}
	tr.Warm(d.Persisted)
	return d, tr
}

func TestEveryLookupHits(t *testing.T) {
	d, _ := newDevice(t)
	arrival := int64(0)
	for p := int64(0); p < 100; p++ {
		req := trace.Request{Arrival: arrival, Offset: p * 4096, Length: 4096, Op: opOf(p%2 == 0)}
		if _, err := d.Serve(req); err != nil {
			t.Fatal(err)
		}
		arrival += int64(1e6)
	}
	m := d.Metrics()
	if m.Hr() != 1 {
		t.Fatalf("Hr = %v", m.Hr())
	}
	if m.TransReads() != 0 || m.TransWrites() != 0 {
		t.Fatal("optimal FTL touched translation pages")
	}
	if m.Replacements != 0 {
		t.Fatal("optimal FTL replaced entries")
	}
}

func TestWarmLoadsTable(t *testing.T) {
	tr := New(8)
	if ppn, _ := tr.Translate(nilEnv{}, 3); ppn.Valid() {
		t.Fatal("unwarmed table must be unmapped")
	}
	tr.Warm(func(lpn ftl.LPN) flash.PPN { return flash.PPN(lpn * 10) })
	ppn, err := tr.Translate(nilEnv{}, 3)
	if err != nil || ppn != 30 {
		t.Fatalf("Translate = %v, %v", ppn, err)
	}
}

// nilEnv satisfies the small part of ftl.Env the optimal FTL touches.
type nilEnv struct{}

func (nilEnv) EntriesPerTP() int                               { return 1024 }
func (nilEnv) NumTPs() int                                     { return 1 }
func (nilEnv) NumLPNs() int64                                  { return 1024 }
func (nilEnv) ReadTP(ftl.VTPN) ([]flash.PPN, error)            { return nil, nil }
func (nilEnv) WriteTP(ftl.VTPN, []ftl.EntryUpdate, bool) error { return nil }
func (nilEnv) NoteLookup(bool)                                 {}
func (nilEnv) NoteReplacement(bool)                            {}
func (nilEnv) NoteBatchWriteback(int)                          {}

func TestGCMovesAreAllHits(t *testing.T) {
	d, _ := newDevice(t)
	arrival := int64(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		p := int64(rng.Intn(2000)) // random overwrites leave victims partly valid
		req := trace.Request{Arrival: arrival, Offset: p * 4096, Length: 4096, Op: trace.OpWrite}
		if _, err := d.Serve(req); err != nil {
			t.Fatal(err)
		}
		arrival += int64(50_000)
	}
	m := d.Metrics()
	if m.GCMapUpdates == 0 {
		t.Fatal("no GC map updates")
	}
	if m.Hgcr() != 1 {
		t.Fatalf("Hgcr = %v, want 1", m.Hgcr())
	}
	if m.TransWritesGC != 0 {
		t.Fatal("optimal FTL wrote translation pages during GC")
	}
}

func TestSnapshot(t *testing.T) {
	tr := New(100)
	s := tr.Snapshot()
	if s.Entries != 100 || s.UsedBytes != 800 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestName(t *testing.T) {
	if New(1).Name() != "Optimal" {
		t.Fatal("wrong name")
	}
}

func opOf(write bool) trace.Op {
	if write {
		return trace.OpWrite
	}
	return trace.OpRead
}
