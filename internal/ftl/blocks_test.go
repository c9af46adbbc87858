package ftl

import (
	"container/heap"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/flash"
)

// TestVictimHeapMatchesBruteForce randomly programs and invalidates pages
// and checks that popVictim always returns a block with the maximum invalid
// count among reclaimable full blocks, and that the block manager passes its
// own audit after every step.
func TestVictimHeapMatchesBruteForce(t *testing.T) {
	cfg := flash.DefaultConfig(32)
	cfg.PagesPerBlock = 16
	chip, err := flash.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm := newBlockMgr(chip)
	rng := rand.New(rand.NewSource(1))

	var live []flash.PPN
	bruteMax := func() int {
		max := 0
		for b := 0; b < cfg.NumBlocks; b++ {
			blk := flash.BlockID(b)
			if bm.isFrontier(blk) || bm.kinds[blk] == blockFree {
				continue
			}
			if chip.WritePtr(blk) < cfg.PagesPerBlock {
				continue
			}
			if inv := cfg.PagesPerBlock - chip.ValidCount(blk); inv > max {
				max = inv
			}
		}
		return max
	}

	for step := 0; step < 4000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // program a page
			if bm.freeCount() < 2 {
				break
			}
			ppn, _, err := bm.alloc(blockData)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := chip.Program(ppn, flash.Meta{Kind: flash.KindData, Tag: int64(step)}); err != nil {
				t.Fatal(err)
			}
			live = append(live, ppn)
		case 5, 6, 7, 8: // invalidate a random live page
			if len(live) == 0 {
				break
			}
			i := rng.Intn(len(live))
			if err := bm.invalidate(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		case 9: // pop a victim and verify greediness, then erase it
			want := bruteMax()
			got := bm.popVictim()
			if got < 0 {
				if want > 0 {
					t.Fatalf("step %d: popVictim returned none, brute force found %d", step, want)
				}
				break
			}
			inv := cfg.PagesPerBlock - chip.ValidCount(got)
			if inv != want {
				t.Fatalf("step %d: victim has %d invalid, best is %d", step, inv, want)
			}
			// Erase it like GC would: drop valid pages, erase, release.
			for off := 0; off < cfg.PagesPerBlock; off++ {
				p := chip.PageAt(got, off)
				if chip.State(p) == flash.PageValid {
					if err := chip.Invalidate(p); err != nil {
						t.Fatal(err)
					}
					for j, lp := range live {
						if lp == p {
							live = append(live[:j], live[j+1:]...)
							break
						}
					}
				}
			}
			if _, err := chip.Erase(got); err != nil {
				t.Fatal(err)
			}
			bm.release(got)
		}
		if err := bm.check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestAllocReturnsPageDie allocates pages of both kinds on a 16-die device of
// 40 four-page blocks until it is full, frees blocks and fills it again, and
// requires the die alloc returns to be the die of the page for every
// allocation. Dies hold two or three blocks each, so round-robin dies run dry
// constantly and the fallback to the following dies is exercised.
func TestAllocReturnsPageDie(t *testing.T) {
	cfg := flash.DefaultConfig(40)
	cfg.PagesPerBlock = 4
	cfg.Channels, cfg.DiesPerChannel = 4, 4
	chip, err := flash.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm := newBlockMgr(chip)
	rng := rand.New(rand.NewSource(5))
	allocs, fallbacks := 0, 0
	for round := 0; round < 4; round++ {
		for {
			kind, rr := blockData, bm.dataRR
			if rng.Intn(3) == 0 {
				kind, rr = blockTrans, bm.transRR
			}
			ppn, die, err := bm.alloc(kind)
			if err != nil {
				break // device full
			}
			if want := chip.DieOf(ppn); die != want {
				t.Fatalf("round %d: alloc returned page %d with die %d, page lies on die %d", round, ppn, die, want)
			}
			if die != rr {
				fallbacks++
			}
			allocs++
			if _, err := chip.Program(ppn, flash.Meta{Kind: flash.KindData, Tag: int64(allocs)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := bm.check(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Free a random half of the full blocks that are no longer frontiers.
		for b := range bm.kinds {
			blk := flash.BlockID(b)
			if bm.kinds[blk] == blockFree || bm.isFrontier(blk) || rng.Intn(2) == 0 {
				continue
			}
			for off := 0; off < cfg.PagesPerBlock; off++ {
				if err := chip.Invalidate(chip.PageAt(blk, off)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := chip.Erase(blk); err != nil {
				t.Fatal(err)
			}
			bm.release(blk)
		}
	}
	if fallbacks == 0 {
		t.Fatalf("none of %d allocations fell back from its round-robin die", allocs)
	}
}

// boxedVictimHeap is the victim heap as it was on container/heap, kept as
// the reference for the non-boxing sift.
type boxedVictimHeap struct {
	items []victim
	idx   []int
}

func (h boxedVictimHeap) Len() int           { return len(h.items) }
func (h boxedVictimHeap) Less(i, j int) bool { return h.items[i].invalid > h.items[j].invalid }
func (h boxedVictimHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.idx[h.items[i].blk] = i
	h.idx[h.items[j].blk] = j
}
func (h *boxedVictimHeap) Push(x any) {
	v := x.(victim)
	h.idx[v.blk] = len(h.items)
	h.items = append(h.items, v)
}
func (h *boxedVictimHeap) Pop() any {
	n := len(h.items)
	v := h.items[n-1]
	h.items = h.items[:n-1]
	h.idx[v.blk] = -1
	return v
}

// TestVictimHeapMatchesContainerHeap drives the hand-rolled heap and the
// container/heap one it replaced through the same random pushes, re-keys,
// pops and removals, with keys drawn from a small range so ties are the
// rule, and requires the same array after every step: same pop order among
// equal invalid counts (victim order feeds EventHash), same index upkeep.
// The re-keys are of both kinds: arbitrary ones through fix, and the
// grow-only ones maybeEnqueue makes through up alone, each against
// heap.Fix.
func TestVictimHeapMatchesContainerHeap(t *testing.T) {
	const blocks = 200
	newIdx := func() []int {
		idx := make([]int, blocks)
		for i := range idx {
			idx[i] = -1
		}
		return idx
	}
	got := victimHeap{idx: newIdx()}
	want := boxedVictimHeap{idx: newIdx()}
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 20000; step++ {
		blk := flash.BlockID(rng.Intn(blocks))
		invalid := 1 + rng.Intn(8)
		i := want.idx[blk]
		switch op := rng.Intn(10); {
		case op < 5 && i < 0:
			got.push(victim{blk: blk, invalid: invalid})
			heap.Push(&want, victim{blk: blk, invalid: invalid})
		case op < 3:
			got.items[i].invalid++
			got.up(i)
			want.items[i].invalid++
			heap.Fix(&want, i)
		case op < 5:
			got.items[i].invalid = invalid
			got.fix(i)
			want.items[i].invalid = invalid
			heap.Fix(&want, i)
		case op < 8 && len(want.items) > 0:
			g, w := got.remove(0), heap.Pop(&want).(victim).blk
			if g != w {
				t.Fatalf("step %d: popped block %d, container/heap pops %d", step, g, w)
			}
		case i >= 0:
			got.remove(i)
			heap.Remove(&want, i)
		}
		if len(got.items) != len(want.items) {
			t.Fatalf("step %d: %d items, container/heap has %d", step, len(got.items), len(want.items))
		}
		for j := range want.items {
			if got.items[j] != want.items[j] {
				t.Fatalf("step %d: items[%d] = %+v, container/heap has %+v", step, j, got.items[j], want.items[j])
			}
		}
		for b := range want.idx {
			if got.idx[b] != want.idx[b] {
				t.Fatalf("step %d: idx[%d] = %d, container/heap has %d", step, b, got.idx[b], want.idx[b])
			}
		}
	}
}

// TestBlockMgrsShareNoLinePair: block managers built back to back (one per
// shard of a sharded host, each written by its own worker on every page
// write) overlap no 128-byte line pair, whatever slots the allocator picks.
func TestBlockMgrsShareNoLinePair(t *testing.T) {
	const pair = 128
	owner := map[uintptr]int{}
	var keep []*blockMgr
	for i := 0; i < 8; i++ {
		chip, err := flash.New(flash.DefaultConfig(32))
		if err != nil {
			t.Fatal(err)
		}
		bm := newBlockMgr(chip)
		keep = append(keep, bm)
		lo := uintptr(unsafe.Pointer(bm))
		hi := lo + unsafe.Sizeof(*bm) - 1
		for l := lo / pair; l <= hi/pair; l++ {
			if j, taken := owner[l]; taken {
				t.Fatalf("block managers %d and %d share the line pair at %#x", j, i, l*pair)
			}
			owner[l] = i
		}
	}
	runtime.KeepAlive(keep) // a collected manager's slot could be handed out again
}

// TestCheckFreeLists doctors a fresh block manager's free lists and expects
// check to name each fault — a block listed twice, a free block on no list —
// and to leave every kind byte as it found it, marks cleared, whether it
// fails or passes.
func TestCheckFreeLists(t *testing.T) {
	chip, err := flash.New(flash.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	bm := newBlockMgr(chip)
	if _, _, err := bm.alloc(blockData); err != nil {
		t.Fatal(err)
	}
	kinds := append([]blockKind(nil), bm.kinds...)
	list := bm.free[0][bm.frHead[0]:]
	for _, c := range []struct {
		name, want string
		doctor     func()
	}{
		{"listed twice", "is on a free list twice", func() { list[1] = list[0] }},
		{"on no list", "is on no free list", func() { bm.nfree--; bm.frHead[0]++ }},
		{"untouched", "", func() {}},
	} {
		saved, head, nfree := append([]flash.BlockID(nil), list...), bm.frHead[0], bm.nfree
		c.doctor()
		err := bm.check()
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: check() = %v, want %q", c.name, err, c.want)
		}
		if !slices.Equal(bm.kinds, kinds) {
			t.Fatalf("%s: check left kinds %v, want %v", c.name, bm.kinds, kinds)
		}
		copy(list, saved)
		bm.frHead[0], bm.nfree = head, nfree
	}
}
