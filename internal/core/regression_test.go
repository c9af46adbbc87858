package core

// Regression tests for the cache-accounting bugs flushed out by the
// fault-injection work. Each test fails against the pre-fix code.

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
)

// stubEnv is a minimal in-memory ftl.Env: translation page v reads back PPN
// v*ePerTP+off for every slot, and writes and replacements are counted but
// not applied. It lets the tests drive the cache into exact byte-level
// corner states that the full device model cannot reach deterministically.
type stubEnv struct {
	ePerTP int
	lpns   int64
	buf    []flash.PPN
	writes int

	replaced, dirtyReplaced int
}

func (e *stubEnv) EntriesPerTP() int { return e.ePerTP }
func (e *stubEnv) NumTPs() int       { return int((e.lpns + int64(e.ePerTP) - 1) / int64(e.ePerTP)) }
func (e *stubEnv) NumLPNs() int64    { return e.lpns }

func (e *stubEnv) ReadTP(v ftl.VTPN) ([]flash.PPN, error) {
	if e.buf == nil {
		e.buf = make([]flash.PPN, e.ePerTP)
	}
	for i := range e.buf {
		e.buf[i] = flash.PPN(int(v)*e.ePerTP + i)
	}
	return e.buf, nil
}

func (e *stubEnv) WriteTP(v ftl.VTPN, updates []ftl.EntryUpdate, fullPage bool) error {
	e.writes++
	return nil
}

func (e *stubEnv) NoteReplacement(dirty bool) {
	e.replaced++
	if dirty {
		e.dirtyReplaced++
	}
}

func (e *stubEnv) NoteLookup(bool)        {}
func (e *stubEnv) NoteBatchWriteback(int) {}

// TestStandaloneUpdateChargesNodeOnce: the standalone-update eviction loop
// used to charge nodeBytes unconditionally, evicting one extra entry per
// update even when lpn's TP node was already cached.
func TestStandaloneUpdateChargesNodeOnce(t *testing.T) {
	// entryBytes 8 (uncompressed), nodeBytes 8: a 48-byte budget holds one
	// TP node plus five entries exactly.
	f := New(Config{CacheBytes: 48, CompressEntries: false})
	env := &stubEnv{ePerTP: 16, lpns: 64}

	for lpn := ftl.LPN(0); lpn < 5; lpn++ {
		if err := f.Update(env, lpn, flash.PPN(100+lpn)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Len() != 5 || f.UsedBytes() != 48 {
		t.Fatalf("after 5 updates: %d entries, %d bytes; want 5, 48", f.Len(), f.UsedBytes())
	}

	// The node for lpn 5 is cached, so the sixth update needs room for one
	// entry only: exactly one eviction.
	if err := f.Update(env, 5, flash.PPN(105)); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 5 {
		t.Fatalf("after in-node standalone update: %d entries cached, want 5 (over-eviction)", f.Len())
	}
	if f.UsedBytes() != 48 {
		t.Fatalf("cache not refilled to budget: used %d, want 48", f.UsedBytes())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRule2RecomputedPerEviction: the §4.5 rule-2 prefetch cap was computed
// once from the coldest TP node before the eviction loop. When the loop
// dropped that node (raising the load's cost by nodeBytes, since the
// demanded entry's own node was the victim), evictions spilled into a
// second cached page with the prefetch still pending — exactly what rule 2
// exists to prevent. The cap is now recomputed before every eviction and
// the prefetch is dropped rather than claim a second victim node.
func TestRule2RecomputedPerEviction(t *testing.T) {
	// entryBytes 8, nodeBytes 32. Budget 88 holds: node A (vtpn 0) with
	// two clean entries (48 B) + node B (vtpn 1) with one entry (40 B).
	f := New(Config{
		CacheBytes:      88,
		RequestPrefetch: true,
		CompressEntries: false,
		TPNodeBytes:     32,
	})
	env := &stubEnv{ePerTP: 8, lpns: 64}

	f.BeginRequest(1, 2, false)
	if _, err := f.Translate(env, 1); err != nil { // loads offs 1,2 of A
		t.Fatal(err)
	}
	f.BeginRequest(8, 8, false)
	if _, err := f.Translate(env, 8); err != nil { // loads B; A is now coldest
		t.Fatal(err)
	}
	if f.Len() != 3 || f.UsedBytes() != 88 {
		t.Fatalf("setup: %d entries, %d bytes; want 3, 88", f.Len(), f.UsedBytes())
	}

	// Miss on A's off 0 with a 5-entry prefetch. Evicting all of A frees
	// 48 B but also re-charges A's nodeBytes against the load, so the
	// one-shot cap let the loop continue into B. The fix drops the
	// prefetch when A is exhausted; B must survive untouched.
	f.BeginRequest(0, 7, false)
	if _, err := f.Translate(env, 0); err != nil {
		t.Fatal(err)
	}
	if f.byVTPN[1] == nil {
		t.Fatalf("prefetching load evicted from a second TP node (B gone): rule 2 violated")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The eviction-run tests below drive load's make-room loop into the places
// where one eviction run has to end and hand back to the loop, and compare
// the cache's content with what one eviction at a time leaves, worked out by
// hand. All use 8-byte entries (CompressEntries off) and 8 entries a
// translation page, so lpn 8v+o is offset o of TP node v.

// request starts a request over [first, last] and translates its first page.
func request(t *testing.T, f *FTL, env ftl.Env, first, last ftl.LPN) {
	t.Helper()
	f.BeginRequest(first, last, false)
	if _, err := f.Translate(env, first); err != nil {
		t.Fatal(err)
	}
}

// checkCache compares the cached offsets of every TP node, MRU to LRU, and
// the replacement counts with want, and runs CheckInvariants.
func checkCache(t *testing.T, f *FTL, env *stubEnv, want map[ftl.VTPN][]int32, replaced, dirtyReplaced int) {
	t.Helper()
	got := map[ftl.VTPN][]int32{}
	for n := f.pages.Front(); n != nil; n = n.Next() {
		for en := n.Value.entries.Front(); en != nil; en = en.Next() {
			got[n.Value.vtpn] = append(got[n.Value.vtpn], en.Value.off)
		}
	}
	if !maps.EqualFunc(got, want, slices.Equal) {
		t.Errorf("cached offsets %v, want %v", got, want)
	}
	if env.replaced != replaced || env.dirtyReplaced != dirtyReplaced {
		t.Errorf("%d replacements, %d dirty; want %d, %d", env.replaced, env.dirtyReplaced, replaced, dirtyReplaced)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestEvictionRunEndsWhenItsNodeEmpties: the run stops when its victim node
// is dropped. Node 1 (offsets 0, 1; 24 B) is the coldest, node 2 (offsets 0,
// 2, 1 from the front; 32 B) the other; the 56-byte budget is full. The miss
// on lpn 24 asks for offsets 0-3 of node 3: 8 B of node and 32 B of entries
// against the 24 B that evicting all of node 1 frees, so rule 2 caps the
// prefetch at offset 1, and emptying node 1 frees exactly what the capped
// load needs. The run ends at the drop and node 2 is untouched. (Past a drop
// the loop goes on only when the dropped node was the demanded page's own,
// TestEvictionRunInDemandedNode; a run that loses the coldest place without a
// drop is TestEvictionRunLosesColdestNode.)
func TestEvictionRunEndsWhenItsNodeEmpties(t *testing.T) {
	f := New(Config{CacheBytes: 56, RequestPrefetch: true, CompressEntries: false})
	env := &stubEnv{ePerTP: 8, lpns: 64}
	request(t, f, env, 8, 9)   // node 1: 8, then 9 behind it
	request(t, f, env, 16, 18) // node 2: 16, 18, 17
	checkCache(t, f, env, map[ftl.VTPN][]int32{1: {0, 1}, 2: {0, 2, 1}}, 0, 0)

	request(t, f, env, 24, 27)
	checkCache(t, f, env, map[ftl.VTPN][]int32{2: {0, 2, 1}, 3: {0, 1}}, 2, 0)
	if f.UsedBytes() != 56 {
		t.Errorf("used %d, want the full 56", f.UsedBytes())
	}
}

// TestEvictionRunInDemandedNode: the victim node is the demanded page's own
// node. While the node stays cached the load is charged no node bytes and
// the prefetch installs into the node the run evicted from; when the run
// empties it, the load is charged its node bytes again.
func TestEvictionRunInDemandedNode(t *testing.T) {
	// Node 0 holds offsets 3, 2, 1, 0 (40 B), node 1 offset 0 (16 B): the
	// 56-byte budget is full and node 0 is the coldest. The miss on lpn 4
	// asks for offsets 4-6: 24 B against 40 B of room in node 0. Node 0
	// stays cached, so the run evicts offsets 0, 1, 2 and stops at the floor.
	f := New(Config{CacheBytes: 56, RequestPrefetch: true, CompressEntries: false})
	env := &stubEnv{ePerTP: 8, lpns: 64}
	for lpn := ftl.LPN(0); lpn < 4; lpn++ {
		request(t, f, env, lpn, lpn)
	}
	request(t, f, env, 8, 8)
	request(t, f, env, 4, 6)
	checkCache(t, f, env, map[ftl.VTPN][]int32{0: {4, 6, 5, 3}, 1: {0}}, 3, 0)

	// Node 0 holds offsets 1, 0 (24 B), node 1 offsets 1, 0 (24 B); budget
	// 48. The miss on lpn 2 asks for offsets 2-7; with node 0 cached the cap
	// is two extras (16 B of room past the demanded entry). Evicting offsets
	// 0 and 1 empties node 0: the load is charged its 8 node bytes again, so
	// offsets 3 and 4 no longer fit, and node 1 is a second page; the
	// prefetch goes.
	f = New(Config{CacheBytes: 48, RequestPrefetch: true, CompressEntries: false})
	env = &stubEnv{ePerTP: 8, lpns: 64}
	for _, lpn := range []ftl.LPN{0, 1, 8, 9} {
		request(t, f, env, lpn, lpn)
	}
	request(t, f, env, 2, 7)
	checkCache(t, f, env, map[ftl.VTPN][]int32{0: {2}, 1: {1, 0}}, 2, 0)
	if f.UsedBytes() != 40 {
		t.Errorf("used %d, want 40: node 1 and a re-created node 0 with one entry", f.UsedBytes())
	}
}

// TestEvictionRunSkipsDirtyEntries: with clean-first the run takes the clean
// entries of its node from the LRU end, stepping over the dirty ones, and the
// node falls back to a dirty writeback once no clean entry is left. Node 0
// holds, MRU to LRU, offset 0 clean, 1 dirty, 2 clean, 3 dirty (40 B); node 1
// offset 0 (16 B); the budget is 56. The miss on lpn 16 asks for offsets 0-1
// of node 2, 24 B, three victims' worth: clean 2 and 0, then dirty 3, the LRU
// entry, written back. Offset 1 survives, still dirty without batch update;
// with it, 3's writeback carries 1 as well and leaves it cached clean.
func TestEvictionRunSkipsDirtyEntries(t *testing.T) {
	for _, c := range []struct {
		batch     bool
		writeback []ftl.EntryUpdate
		dirtyLeft int
	}{
		{false, []ftl.EntryUpdate{{Off: 3, PPN: 103}}, 1},
		{true, []ftl.EntryUpdate{{Off: 1, PPN: 101}, {Off: 3, PPN: 103}}, 0},
	} {
		f := New(Config{CacheBytes: 56, RequestPrefetch: true, CleanFirst: true, BatchUpdate: c.batch, CompressEntries: false})
		env := &recordingEnv{stubEnv: stubEnv{ePerTP: 8, lpns: 64}}
		if err := f.Update(env, 3, 103); err != nil {
			t.Fatal(err)
		}
		request(t, f, env, 2, 2)
		if err := f.Update(env, 1, 101); err != nil {
			t.Fatal(err)
		}
		request(t, f, env, 0, 0)
		request(t, f, env, 8, 8)
		checkCache(t, f, &env.stubEnv, map[ftl.VTPN][]int32{0: {0, 1, 2, 3}, 1: {0}}, 0, 0)

		request(t, f, env, 16, 17)
		checkCache(t, f, &env.stubEnv, map[ftl.VTPN][]int32{0: {1}, 1: {0}, 2: {0, 1}}, 3, 1)
		if len(env.batches) != 1 || env.vtpns[0] != 0 || !slices.Equal(env.batches[0], c.writeback) {
			t.Errorf("batch %v: writebacks %v on pages %v, want one, %v on page 0", c.batch, env.batches, env.vtpns, c.writeback)
		}
		if got := f.byVTPN[0].dirty; got != c.dirtyLeft {
			t.Errorf("batch %v: offset 1 left with dirty count %d, want %d", c.batch, got, c.dirtyLeft)
		}
	}
}

// TestEvictionRunLosesColdestNode: under HotnessAvg evicting a node's oldest
// entries raises its average, and the node can overtake a colder one partway
// through a run. Node 0 holds offsets 2, 1, 0 with stamps 8, 4, 2 (average
// 4.7), node 1 offset 0 with stamp 6; 24-byte TP nodes, budget 80. The miss on
// lpn 16 (node 2) needs 32 B. Evicting offset 0 leaves node 0 at average 6,
// level with node 1, so it stays the coldest; evicting offset 1 takes it to 8,
// ahead of node 1. The run ends there, and the rest comes from node 1.
//   - Without a prefetch the loop goes on to node 1 and empties it.
//   - With one (offsets 1-2, within the cap of 16 B past the demanded entry)
//     the next victim would be a second page, so the prefetch is dropped
//     first, and node 1 still has to go.
func TestEvictionRunLosesColdestNode(t *testing.T) {
	for _, last := range []ftl.LPN{16, 18} {
		f := New(Config{CacheBytes: 80, RequestPrefetch: true, CompressEntries: false, TPNodeBytes: 24, Hotness: HotnessAvg})
		env := &stubEnv{ePerTP: 8, lpns: 64}
		for _, lpn := range []ftl.LPN{0, 1, 8, 2} {
			request(t, f, env, lpn, lpn)
		}
		checkCache(t, f, env, map[ftl.VTPN][]int32{1: {0}, 0: {2, 1, 0}}, 0, 0)
		if f.pages.Back().Value.vtpn != 0 {
			t.Fatal("set-up: node 0 is not the coldest")
		}

		request(t, f, env, 16, last)
		checkCache(t, f, env, map[ftl.VTPN][]int32{0: {2}, 2: {0}}, 3, 0)
	}
}

// TestGeometryThreadedAtConstruction: core.New hardcoded the 4 KB-page
// entries-per-TP count; with a non-4KB PageSize the cache computed wrong
// VTPN/offset geometry until the first Translate synced it from the Env.
// The device now pushes its real geometry in at construction.
func TestGeometryThreadedAtConstruction(t *testing.T) {
	if got := New(Config{CacheBytes: 4096}).EntriesPerTP(); got != 1024 {
		t.Fatalf("default geometry: %d entries/TP, want 1024", got)
	}
	if got := New(Config{CacheBytes: 4096, EntriesPerTP: 512}).EntriesPerTP(); got != 512 {
		t.Fatalf("explicit geometry: %d entries/TP, want 512", got)
	}

	tr := New(DefaultConfig(4096))
	cfg := ftl.Config{
		LogicalBytes:  4 << 20,
		PageSize:      2048,
		PagesPerBlock: 32,
		CacheBytes:    4096,
	}
	if _, err := ftl.NewDevice(cfg, tr); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.EntriesPerTP(), 2048/ftl.EntryBytesInFlash; got != want {
		t.Fatalf("device with 2 KB pages: cache thinks %d entries/TP, want %d", got, want)
	}
}
