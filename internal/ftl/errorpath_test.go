package ftl_test

// Error-propagation tests: every Translator implementation must surface
// ReadTP/WriteTP failures to its caller instead of swallowing them, and must
// be left in a sane state afterwards (invariants hold, later clean
// operations succeed). The fault-injection layer makes such failures a
// normal part of a run, so a scheme that panics or silently corrupts its
// cache on one is broken.

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/ftl/cdftl"
	"repro/internal/ftl/dftl"
	"repro/internal/ftl/sftl"
	"repro/internal/ftl/zftl"
)

var errInjected = errors.New("injected env failure")

// faultyEnv is an in-memory ftl.Env whose ReadTP/WriteTP can be made to
// fail on demand. Slot values are 1000+v*ePerTP+off so PPN 0 never appears
// as a real mapping.
type faultyEnv struct {
	ePerTP   int
	lpns     int64
	buf      []flash.PPN
	readErr  error
	writeErr error
	reads    int
	writes   int
}

func newFaultyEnv() *faultyEnv { return &faultyEnv{ePerTP: 16, lpns: 256} }

func (e *faultyEnv) EntriesPerTP() int { return e.ePerTP }
func (e *faultyEnv) NumTPs() int       { return int((e.lpns + int64(e.ePerTP) - 1) / int64(e.ePerTP)) }
func (e *faultyEnv) NumLPNs() int64    { return e.lpns }

func (e *faultyEnv) ReadTP(v ftl.VTPN) ([]flash.PPN, error) {
	if e.readErr != nil {
		return nil, e.readErr
	}
	e.reads++
	if e.buf == nil {
		e.buf = make([]flash.PPN, e.ePerTP)
	}
	for i := range e.buf {
		e.buf[i] = flash.PPN(1000 + int(v)*e.ePerTP + i)
	}
	return e.buf, nil
}

func (e *faultyEnv) WriteTP(v ftl.VTPN, updates []ftl.EntryUpdate, fullPage bool) error {
	if e.writeErr != nil {
		return e.writeErr
	}
	e.writes++
	return nil
}

func (e *faultyEnv) NoteLookup(bool)        {}
func (e *faultyEnv) NoteReplacement(bool)   {}
func (e *faultyEnv) NoteBatchWriteback(int) {}

// invariants runs the scheme's CheckInvariants when it has one.
func invariants(t *testing.T, tr ftl.Translator) {
	t.Helper()
	if c, ok := tr.(interface{ CheckInvariants() error }); ok {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("invariants violated after env failure: %v", err)
		}
	}
}

// translatorsUnderTest returns every demand-based scheme with a tiny cache,
// so a handful of dirty updates forces writebacks.
func translatorsUnderTest() []struct {
	name string
	make func() ftl.Translator
} {
	return []struct {
		name string
		make func() ftl.Translator
	}{
		{"DFTL", func() ftl.Translator { return dftl.New(dftl.Config{CacheBytes: 64}) }},
		{"TPFTL", func() ftl.Translator { return core.New(core.DefaultConfig(64)) }},
		{"TPFTL-bare", func() ftl.Translator { return core.New(core.Config{CacheBytes: 64}) }},
		{"S-FTL", func() ftl.Translator { return sftl.New(sftl.Config{CacheBytes: 64}) }},
		{"CDFTL", func() ftl.Translator { return cdftl.New(cdftl.Config{CacheBytes: 64}) }},
		{"ZFTL", func() ftl.Translator { return zftl.New(zftl.Config{CacheBytes: 64}) }},
	}
}

func TestTranslatePropagatesReadTPError(t *testing.T) {
	for _, tc := range translatorsUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.make()
			env := newFaultyEnv()
			env.readErr = errInjected
			if _, err := tr.Translate(env, 5); !errors.Is(err, errInjected) {
				t.Fatalf("Translate returned %v, want the injected ReadTP error", err)
			}
			invariants(t, tr)

			// The failure must not wedge the cache: the same lookup
			// succeeds once the fault clears.
			env.readErr = nil
			ppn, err := tr.Translate(env, 5)
			if err != nil {
				t.Fatalf("Translate after fault cleared: %v", err)
			}
			if want := flash.PPN(1005); ppn != want {
				t.Fatalf("Translate after fault cleared = %d, want %d", ppn, want)
			}
			invariants(t, tr)
		})
	}
}

func TestUpdatePropagatesWriteTPError(t *testing.T) {
	for _, tc := range translatorsUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.make()
			env := newFaultyEnv()

			// Fill the tiny cache with dirty entries across many
			// translation pages, then arm the write fault: within a
			// bounded number of further updates a writeback must happen
			// and its error must surface.
			lpn := ftl.LPN(0)
			next := func() ftl.LPN {
				l := lpn
				lpn += ftl.LPN(env.ePerTP) // one lpn per TP: maximum eviction pressure
				if lpn >= ftl.LPN(env.lpns) {
					lpn = (lpn % ftl.LPN(env.lpns)) + 1
				}
				return l
			}
			for i := 0; i < 32; i++ {
				if err := tr.Update(env, next(), flash.PPN(2000+i)); err != nil {
					t.Fatalf("setup update %d: %v", i, err)
				}
			}
			env.writeErr = errInjected
			var got error
			for i := 0; i < 200 && got == nil; i++ {
				if err := tr.Update(env, next(), flash.PPN(3000+i)); err != nil {
					got = err
				}
			}
			if !errors.Is(got, errInjected) {
				t.Fatalf("200 dirty updates against a failing WriteTP returned %v, want the injected error", got)
			}
			invariants(t, tr)

			// Clean operation after the fault clears.
			env.writeErr = nil
			if err := tr.Update(env, next(), 4000); err != nil {
				t.Fatalf("Update after fault cleared: %v", err)
			}
			invariants(t, tr)
		})
	}
}

// TestWriteTPFailureKeepsDeviceConsistent pins the contract that makes
// clear-dirty-before-WriteTP (TPFTL §4.4 batch update) safe: Device.WriteTP
// applies the entry updates to the persisted view before any flash
// operation can fail, so a writeback that surfaces an exhausted-retry fault
// loses no mapping information and the truth/persist cross-check still
// holds.
func TestWriteTPFailureKeepsDeviceConsistent(t *testing.T) {
	cfg := testConfig()
	cfg.FaultRetries = 2
	tr := core.New(core.DefaultConfig(cfg.CacheBytes))
	d, err := ftl.NewDevice(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Format(); err != nil {
		t.Fatal(err)
	}

	// Overfill the cache with dirty entries spread over every translation
	// page, so further misses evict dirty victims and write back batches.
	for p := int64(0); p < 128; p++ {
		if _, err := d.Serve(wr(0, (p*31)%4096)); err != nil {
			t.Fatal(err)
		}
	}

	// Every program now fails: each of these writes dies either on its
	// data-page program or, when its lookup evicts a dirty victim, inside
	// the translation-page writeback — after TPFTL already cleared the
	// batch's dirty flags. The cache keeps evolving across attempts
	// (victims removed, survivors cleaned, persisted view updated), so
	// many distinct failure states get probed.
	d.Chip().SetFaultPlan(&flash.FaultPlan{ProgramProb: 1})
	failures := 0
	var sample error
	for p := int64(0); p < 64; p++ {
		if _, err := d.Serve(wr(0, (p*67+1)%4096)); err != nil {
			failures++
			sample = err
		}
	}
	if failures != 64 {
		t.Fatalf("%d of 64 writes failed under ProgramProb=1, want all", failures)
	}
	var fe *flash.FaultError
	if !errors.As(sample, &fe) {
		t.Fatalf("writes against a failing chip returned %v, want a flash.FaultError", sample)
	}
	if d.Metrics().FaultRetries < int64(cfg.FaultRetries) {
		t.Fatalf("retries %d, want at least %d before surfacing", d.Metrics().FaultRetries, cfg.FaultRetries)
	}

	// The fault clears; the device must still be fully usable and the
	// mapping consistent including dirty cached entries.
	d.Chip().SetFaultPlan(nil)
	for p := int64(0); p < 48; p++ {
		if _, err := d.Serve(wr(0, 512+p)); err != nil {
			t.Fatalf("write after fault cleared: %v", err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

// TestRetryExhaustionSurfacesCleanly drives a scheduled burst of transient
// read faults longer than the retry bound through a full device: the serve
// must fail with the fault, metrics must count every injected fault, and
// the device must remain recoverable.
func TestRetryExhaustionSurfacesCleanly(t *testing.T) {
	cfg := testConfig()
	cfg.FaultRetries = 3
	d, _ := newDFTLDevice(t, cfg)
	if _, err := d.Serve(wr(0, 7)); err != nil {
		t.Fatal(err)
	}

	// Fail read attempts 1..4 after arming: the next translation-page
	// read fails once plus three retries, exhausting the bound. Attempt 5
	// fails too, but its retry (attempt 6) succeeds — absorbed.
	d.Chip().SetFaultPlan(&flash.FaultPlan{
		FailAt: map[string][]int64{"read": {1, 2, 3, 4, 5}},
	})
	_, err := d.Serve(rd(0, 900)) // cache miss → ReadTP → chip read
	var fe *flash.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("read with exhausted retries returned %v, want a flash.FaultError", err)
	}
	m := d.Metrics()
	if m.InjectedFaults != 4 || m.FaultRetries != 3 {
		t.Fatalf("injected %d / retried %d, want 4 / 3", m.InjectedFaults, m.FaultRetries)
	}

	// The retried lookup repeats: attempt 5's scheduled fault is absorbed
	// by one retry.
	if _, err := d.Serve(rd(0, 900)); err != nil {
		t.Fatalf("read with in-bound fault: %v", err)
	}
	m = d.Metrics()
	if m.InjectedFaults != 5 || m.FaultRetries != 4 {
		t.Fatalf("after absorbed fault: injected %d / retried %d, want 5 / 4", m.InjectedFaults, m.FaultRetries)
	}
	if err := d.VerifyRecoverable(); err != nil {
		t.Fatal(err)
	}
}
