package core

// The three batch walks over a TP node's dirty entries (evictRun,
// AppendDirty, FlushDirty) go over the node's dirty bitmap, not its entry
// list. These tests put the dirty entries at the LRU tail with clean ones in
// front — the order in which a list walk that stops one entry early, or keys
// on the first clean entry, loses a writeback — and check that every dirty
// entry reaches the batch and that the cache's own invariants, the bitmap's
// among them, hold afterwards. A batch is compared as a set: WriteTP applies
// it by offset, so the order of its updates is not observable
// (ftl.TestWriteTPIgnoresUpdateOrder).

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

// wantDirty is the dirty tail as WriteTP updates, sorted by offset.
var wantDirty = []ftl.EntryUpdate{{Off: 1, PPN: 101}, {Off: 2, PPN: 102}, {Off: 3, PPN: 103}}

// byOffset returns the batch sorted by offset.
func byOffset(ups []ftl.EntryUpdate) []ftl.EntryUpdate {
	ups = slices.Clone(ups)
	slices.SortFunc(ups, func(a, b ftl.EntryUpdate) int { return a.Off - b.Off })
	return ups
}

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
	if len(env.batches) != 1 || env.vtpns[0] != 0 || !slices.Equal(byOffset(env.batches[0]), wantDirty) {
		t.Fatalf("WriteTP batches %v on pages %v, want one batch of %v on page 0", env.batches, env.vtpns, wantDirty)
	}
	if tp := f.byVTPN[0]; tp.entries.Len() != 5 || tp.byOff[1] != 0 {
		t.Fatalf("victim off 1 still cached (%d entries)", tp.entries.Len())
	}
	checkClean(t, f)
}

func TestAppendDirtyBatchWalkReachesDirtyTail(t *testing.T) {
	// A GC miss on page 0 (lpn 5 is not cached) forces a flash update of
	// the page; batch update appends every cached dirty entry of it.
	f, _ := dirtyTailCache(t, DefaultConfig(0))
	ups, cleaned := f.AppendDirty(0, []ftl.EntryUpdate{{Off: 5, PPN: 205}})
	want := append(slices.Clone(wantDirty), ftl.EntryUpdate{Off: 5, PPN: 205})
	if !slices.Equal(byOffset(ups), want) || cleaned != len(wantDirty) {
		t.Fatalf("AppendDirty = %v cleaning %d, want %v cleaning %d", ups, cleaned, want, len(wantDirty))
	}
	checkClean(t, f)
}

func TestFlushDirtyWalkReachesDirtyTail(t *testing.T) {
	f, env := dirtyTailCache(t, DefaultConfig(0))
	if err := f.FlushDirty(env); err != nil {
		t.Fatal(err)
	}
	if len(env.batches) != 1 || env.vtpns[0] != 0 || !slices.Equal(byOffset(env.batches[0]), wantDirty) {
		t.Fatalf("WriteTP batches %v on pages %v, want one batch of %v on page 0", env.batches, env.vtpns, wantDirty)
	}
	checkClean(t, f)
}
