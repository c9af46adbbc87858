package ftl_test

// Tests of the device's GC-time map updates (updateGCMaps): the order of the
// updates inside one translation-page write is not observable, a failed
// batch write surfaces from the request that forced the collection, and a
// warmed collection allocates nothing.

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/ftl/cdftl"
	"repro/internal/ftl/dftl"
	"repro/internal/trace"
)

// batchHook wraps a translator so a test can act on every GC batch: the
// device calls AppendDirty right before each batch's WriteTP, and onBatch
// sees (and may rewrite in place) the updates that write will apply. Every
// other hook the device looks for is forwarded.
type batchHook struct {
	ftl.Translator
	onBatch func(ups []ftl.EntryUpdate)
}

func (h *batchHook) AppendDirty(v ftl.VTPN, ups []ftl.EntryUpdate) ([]ftl.EntryUpdate, int) {
	cleaned := 0
	if a, ok := h.Translator.(ftl.DirtyAppender); ok {
		ups, cleaned = a.AppendDirty(v, ups)
	}
	h.onBatch(ups)
	return ups, cleaned
}

func (h *batchHook) EndGCBatch(env ftl.Env) error {
	if e, ok := h.Translator.(ftl.GCBatchEnder); ok {
		return e.EndGCBatch(env)
	}
	return nil
}

func (h *batchHook) SetGeometry(entriesPerTP int) {
	if g, ok := h.Translator.(ftl.GeometryAware); ok {
		g.SetGeometry(entriesPerTP)
	}
}

// newHookedDevice formats a device over tr wrapped in a batchHook.
func newHookedDevice(t *testing.T, cfg ftl.Config, tr ftl.Translator, onBatch func([]ftl.EntryUpdate)) *ftl.Device {
	t.Helper()
	d, err := ftl.NewDevice(cfg, &batchHook{Translator: tr, onBatch: onBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Format(); err != nil {
		t.Fatal(err)
	}
	if w, ok := tr.(ftl.Warmer); ok {
		w.Warm(d.Persisted)
	}
	return d
}

// gcWorkload is random one-page reads and writes, three in four writes, over
// a device of the given size: enough to keep a formatted device in GC.
func gcWorkload(pages int64, n int, seed int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]trace.Request, n)
	for i := range reqs {
		op := trace.OpWrite
		if rng.Intn(4) == 0 {
			op = trace.OpRead
		}
		reqs[i] = trace.Request{Arrival: int64(i) * 1000, Op: op, Offset: rng.Int63n(pages) * 4096, Length: 4096}
	}
	return reqs
}

// TestWriteTPIgnoresUpdateOrder backs the claim that lets the device batch
// GC map updates without sorting them: WriteTP applies a batch by offset, so
// reversing every GC batch (and with it TPFTL's appended dirty entries)
// leaves the persisted mapping, the GTD, every counter and the scheduled
// event sequence exactly as they were.
func TestWriteTPIgnoresUpdateOrder(t *testing.T) {
	cfg := testConfig()
	reqs := gcWorkload(cfg.LogicalPages(), 3*int(cfg.LogicalPages()), 7)
	for _, mk := range sixTranslators(cfg) {
		run := func(reverse bool) (*ftl.Device, int) {
			permuted := 0
			d := newHookedDevice(t, cfg, mk(), func(ups []ftl.EntryUpdate) {
				if reverse && len(ups) > 1 {
					slices.Reverse(ups)
					permuted++
				}
			})
			for i, r := range reqs {
				if _, err := d.Serve(r); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			return d, permuted
		}
		a, _ := run(false)
		b, permuted := run(true)
		name := mk().Name()
		if name != "Optimal" && permuted == 0 {
			t.Fatalf("%s: no GC batch of two or more updates; nothing was permuted", name)
		}
		for lpn := ftl.LPN(0); int64(lpn) < cfg.LogicalPages(); lpn++ {
			if pa, pb := a.Persisted(lpn), b.Persisted(lpn); pa != pb {
				t.Fatalf("%s: lpn %d persisted as %d, %d under reversed batches", name, lpn, pa, pb)
			}
		}
		for v := ftl.VTPN(0); int(v) < a.NumTPs(); v++ {
			if ga, gb := a.GTDEntry(v), b.GTDEntry(v); ga != gb {
				t.Fatalf("%s: translation page %d at %d, %d under reversed batches", name, v, ga, gb)
			}
		}
		if ma, mb := a.Metrics(), b.Metrics(); ma != mb {
			t.Fatalf("%s: metrics differ under reversed batches\n %+v\n %+v", name, ma, mb)
		}
		if ha, hb := a.Scheduler().EventHash(), b.Scheduler().EventHash(); ha != hb {
			t.Fatalf("%s: event hash %#x, %#x under reversed batches", name, ha, hb)
		}
	}
}

// TestOnGCDataMovesPropagatesWriteTPError cuts power at the first GC batch's
// translation-page write: the error must surface from the request whose write
// forced the collection, for every scheme, and leave the translator's own
// structure intact.
func TestOnGCDataMovesPropagatesWriteTPError(t *testing.T) {
	cfg := testConfig()
	reqs := gcWorkload(cfg.LogicalPages(), 3*int(cfg.LogicalPages()), 11)
	for _, tc := range translatorsUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.make()
			var d *ftl.Device
			armed := false
			d = newHookedDevice(t, cfg, tr, func([]ftl.EntryUpdate) {
				if !armed {
					d.Chip().SetFaultPlan(&flash.FaultPlan{CutAtOp: 1})
					armed = true
				}
			})
			var err error
			for i := 0; i < len(reqs) && err == nil; i++ {
				_, err = d.Serve(reqs[i])
			}
			if !armed {
				t.Fatal("no GC batch wrote a translation page")
			}
			if !errors.Is(err, flash.ErrPowerCut) {
				t.Fatalf("request returned %v, want the power cut injected into the GC batch's WriteTP", err)
			}
			invariants(t, tr)
		})
	}
}

// TestSteadyStateGCMapUpdatesAllocate0 holds a warmed collection — the
// translator's refreshes, the device's per-page chains and bitmap, TPFTL's
// appended dirty entries, the batch writes — to zero allocations for the
// schemes whose cache lookups allocate nothing. Before the device batched the
// misses, DFTL and CDFTL built a map of per-page slices every collection.
func TestSteadyStateGCMapUpdatesAllocate0(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	cfg := testConfig()
	reqs := gcWorkload(cfg.LogicalPages(), 3*int(cfg.LogicalPages()), 5)
	for _, tr := range []ftl.Translator{
		core.New(core.DefaultConfig(cfg.CacheBytes)),
		dftl.New(dftl.Config{CacheBytes: cfg.CacheBytes}),
		cdftl.New(cdftl.Config{CacheBytes: cfg.CacheBytes}),
	} {
		d, err := ftl.NewDevice(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Format(); err != nil {
			t.Fatal(err)
		}
		for i, r := range reqs {
			if _, err := d.Serve(r); err != nil {
				t.Fatalf("%s: request %d: %v", tr.Name(), i, err)
			}
		}
		before := d.Metrics()
		allocs := testing.AllocsPerRun(16, func() {
			if ok, err := d.CollectOne(); err != nil || !ok {
				t.Fatalf("%s: CollectOne = %v, %v", tr.Name(), ok, err)
			}
		})
		m := d.Metrics()
		if misses := (m.GCMapUpdates - m.GCMapHits) - (before.GCMapUpdates - before.GCMapHits); misses == 0 {
			t.Fatalf("%s: the collections had no GC miss; the batch writes went unmeasured", tr.Name())
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per collection, want 0", tr.Name(), allocs)
		}
	}
}
