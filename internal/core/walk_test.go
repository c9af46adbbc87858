package core

// The three batch walks over a TP node's entry list (evictRun,
// OnGCDataMoves, FlushDirty) stop once tp.dirty entries have been collected
// instead of running to the end of the list. These tests put the dirty
// entries at the LRU tail with clean ones in front — the order in which an
// exit that comes one entry early, or that keys on the first clean entry,
// loses a writeback — and check that every dirty entry reaches WriteTP, in
// list order, and that the cache's own invariants hold afterwards.

import (
	"slices"
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
)

// recordingEnv is stubEnv that keeps a copy of every WriteTP batch.
type recordingEnv struct {
	stubEnv
	vtpns   []ftl.VTPN
	batches [][]ftl.EntryUpdate
}

func (e *recordingEnv) WriteTP(v ftl.VTPN, updates []ftl.EntryUpdate, fullPage bool) error {
	e.vtpns = append(e.vtpns, v)
	e.batches = append(e.batches, slices.Clone(updates))
	return nil
}

// dirtyTailCache builds TP node 0 with entry list (MRU→LRU)
// clean 9, 8, 7, then dirty 3, 2, 1 — and a second, all-clean TP node 1 in
// front of it, so node 0 is also the coldest page.
func dirtyTailCache(t *testing.T, cfg Config) (*FTL, *recordingEnv) {
	t.Helper()
	cfg.CacheBytes = 1 << 10 // roomy: nothing evicts during set-up
	f := New(cfg)
	env := &recordingEnv{stubEnv: stubEnv{ePerTP: 16, lpns: 64}}
	for lpn := ftl.LPN(1); lpn <= 3; lpn++ {
		if err := f.Update(env, lpn, flash.PPN(100+lpn)); err != nil {
			t.Fatal(err)
		}
	}
	for _, lpn := range []ftl.LPN{7, 8, 9, 16} {
		f.BeginRequest(lpn, lpn, false)
		if _, err := f.Translate(env, lpn); err != nil {
			t.Fatal(err)
		}
	}
	tp := f.byVTPN[0]
	var offs []int32
	var dirty []bool
	for n := tp.entries.Front(); n != nil; n = n.Next() {
		offs = append(offs, n.Value.off)
		dirty = append(dirty, n.Value.dirty)
	}
	if !slices.Equal(offs, []int32{9, 8, 7, 3, 2, 1}) ||
		!slices.Equal(dirty, []bool{false, false, false, true, true, true}) || tp.dirty != 3 {
		t.Fatalf("set-up: entry list %v dirty %v count %d", offs, dirty, tp.dirty)
	}
	if f.pages.Back().Value != tp {
		t.Fatal("set-up: TP node 0 is not the coldest page")
	}
	return f, env
}

// wantDirty is the dirty tail in list order, as WriteTP updates.
var wantDirty = []ftl.EntryUpdate{{Off: 3, PPN: 103}, {Off: 2, PPN: 102}, {Off: 1, PPN: 101}}

func checkClean(t *testing.T, f *FTL) {
	t.Helper()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d := f.DirtyCached(); len(d) != 0 {
		t.Fatalf("dirty entries left behind: %v", d)
	}
}

func TestEvictOneBatchWalkReachesDirtyTail(t *testing.T) {
	// Without clean-first the victim is the LRU entry, dirty off 1: its
	// writeback must carry the other two dirty entries, which stay cached.
	f, env := dirtyTailCache(t, Config{BatchUpdate: true, CompressEntries: true})
	evicted, err := f.evictRun(env, f.UsedBytes()) // a floor at the usage stops the run after one victim
	if err != nil || !evicted {
		t.Fatalf("evictRun = %v, %v", evicted, err)
	}
	if len(env.batches) != 1 || env.vtpns[0] != 0 || !slices.Equal(env.batches[0], wantDirty) {
		t.Fatalf("WriteTP batches %v on pages %v, want one batch %v on page 0", env.batches, env.vtpns, wantDirty)
	}
	if tp := f.byVTPN[0]; tp.entries.Len() != 5 || tp.byOff[1] != 0 {
		t.Fatalf("victim off 1 still cached (%d entries)", tp.entries.Len())
	}
	checkClean(t, f)
}

func TestOnGCDataMovesBatchWalkReachesDirtyTail(t *testing.T) {
	// A GC miss on page 0 (lpn 5 is not cached) forces a flash update of
	// the page; batch update appends every cached dirty entry of it.
	f, env := dirtyTailCache(t, DefaultConfig(0))
	if err := f.OnGCDataMoves(env, []ftl.GCMove{{LPN: 5, OldPPN: 5, NewPPN: 205}}); err != nil {
		t.Fatal(err)
	}
	want := append([]ftl.EntryUpdate{{Off: 5, PPN: 205}}, wantDirty...)
	if len(env.batches) != 1 || env.vtpns[0] != 0 || !slices.Equal(env.batches[0], want) {
		t.Fatalf("WriteTP batches %v on pages %v, want one batch %v on page 0", env.batches, env.vtpns, want)
	}
	checkClean(t, f)
}

func TestFlushDirtyWalkReachesDirtyTail(t *testing.T) {
	f, env := dirtyTailCache(t, DefaultConfig(0))
	if err := f.FlushDirty(env); err != nil {
		t.Fatal(err)
	}
	// FlushDirty orders its batch by offset.
	want := slices.Clone(wantDirty)
	slices.Reverse(want)
	if len(env.batches) != 1 || env.vtpns[0] != 0 || !slices.Equal(env.batches[0], want) {
		t.Fatalf("WriteTP batches %v on pages %v, want one batch %v on page 0", env.batches, env.vtpns, want)
	}
	checkClean(t, f)
}
