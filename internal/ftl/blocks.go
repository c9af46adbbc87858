package ftl

import (
	"repro/internal/cacheline"
	"repro/internal/flash"
)

// blockKind tracks what an allocated block holds; garbage collection treats
// data and translation blocks differently (§3.1's Ngcd vs Ngct).
type blockKind uint8

const (
	blockFree blockKind = iota
	blockData
	blockTrans
)

// blockMgr owns physical block allocation: per-die free-block lists, one
// active write frontier per (block kind, die), and the greedy GC victim
// queue — an indexed max-heap on invalid-page count, re-keyed on every
// invalidation so popping always yields the fullest-of-garbage block.
//
// On a multi-die device consecutive data-page allocations round-robin
// across dies (page-level striping), so consecutive logical pages land on
// consecutive channels and independent accesses overlap in the scheduler;
// translation pages stripe the same way on a cursor of their own. With one
// die everything collapses to the single-frontier FIFO allocator this
// generalizes.
type blockMgr struct {
	chip  *flash.Chip
	kinds []blockKind

	ppb     int // pages per block, fixed at construction
	numDies int
	free    [][]flash.BlockID // per-die free FIFO
	frHead  []int             // consumed prefix of each die's FIFO

	dataFrontier  []flash.BlockID // per die; -1 when no open block
	transFrontier []flash.BlockID
	dataRR        int // round-robin die cursors, one per kind
	transRR       int

	victims victimHeap

	policy  GCPolicy
	tick    int64   // advances on every invalidation (cost-benefit age base)
	lastMod []int64 // tick of each block's latest invalidation
}

func newBlockMgr(chip *flash.Chip) *blockMgr {
	cfg := chip.Config()
	n := cfg.NumBlocks
	dies := cfg.NumDies()
	bm := cacheline.Isolated(blockMgr{
		chip:          chip,
		kinds:         make([]blockKind, n),
		ppb:           cfg.PagesPerBlock,
		numDies:       dies,
		free:          make([][]flash.BlockID, dies),
		frHead:        make([]int, dies),
		dataFrontier:  make([]flash.BlockID, dies),
		transFrontier: make([]flash.BlockID, dies),
		lastMod:       make([]int64, n),
	})
	bm.victims.idx = make([]int, n)
	for d := 0; d < dies; d++ {
		bm.dataFrontier[d] = -1
		bm.transFrontier[d] = -1
	}
	for b := range bm.victims.idx {
		bm.victims.idx[b] = -1
	}
	// Each FIFO pops from the front: append ascending so low blocks
	// allocate first (reproducible layout; Format lays data out
	// sequentially). Blocks interleave across dies (flash.Config.DieOf).
	for b := 0; b < n; b++ {
		die := chip.DieOfBlock(flash.BlockID(b))
		bm.free[die] = append(bm.free[die], flash.BlockID(b))
	}
	return bm
}

func (bm *blockMgr) freeCount() int {
	n := 0
	for d := 0; d < bm.numDies; d++ {
		n += len(bm.free[d]) - bm.frHead[d]
	}
	return n
}

// popFree takes from the FRONT of die's free list (FIFO): erased blocks
// re-enter circulation in release order, so no block idles at the bottom of
// a stack accumulating an ever-growing wear deficit.
func (bm *blockMgr) popFree(die int) (flash.BlockID, bool) {
	if bm.frHead[die] >= len(bm.free[die]) {
		return -1, false
	}
	b := bm.free[die][bm.frHead[die]]
	bm.frHead[die]++
	// Compact once the dead prefix dominates.
	if bm.frHead[die] > 64 && bm.frHead[die]*2 > len(bm.free[die]) {
		bm.free[die] = append(bm.free[die][:0], bm.free[die][bm.frHead[die]:]...)
		bm.frHead[die] = 0
	}
	return b, true
}

// isFrontier reports whether blk is an open write frontier of either kind.
func (bm *blockMgr) isFrontier(blk flash.BlockID) bool {
	for d := 0; d < bm.numDies; d++ {
		if bm.dataFrontier[d] == blk || bm.transFrontier[d] == blk {
			return true
		}
	}
	return false
}

// tryAllocOnDie returns the next free page of die's frontier for kind,
// opening a new block from die's free list when the frontier is full. It
// fails (without error) when the frontier is full and the die has no free
// block left.
//
//ftl:hotpath
func (bm *blockMgr) tryAllocOnDie(kind blockKind, die int) (flash.PPN, bool) {
	frontier := &bm.dataFrontier[die]
	if kind == blockTrans {
		frontier = &bm.transFrontier[die]
	}
	if *frontier >= 0 {
		if wp := bm.chip.WritePtr(*frontier); wp < bm.ppb {
			return bm.chip.PageAt(*frontier, wp), true
		}
	}
	// The current frontier is full: retire it and open a new block. The
	// retired block is enqueued as a GC candidate only after the frontier
	// pointer moves off it — maybeEnqueue skips active frontiers, and
	// pages invalidated during its tenure must not be lost to GC.
	blk, ok := bm.popFree(die)
	if !ok {
		return flash.InvalidPPN, false
	}
	old := *frontier
	bm.kinds[blk] = kind
	*frontier = blk
	if old >= 0 {
		bm.maybeEnqueue(old)
	}
	return bm.chip.PageAt(blk, 0), true
}

// alloc returns the next free page for kind, striping consecutive
// allocations of a kind across the dies. When the round-robin die cannot
// serve (frontier full, die out of free blocks), allocation falls back to the
// following dies in turn — a die running dry must degrade striping, not fail
// the write. The caller is responsible for keeping the free count above the
// GC threshold.
//
//ftl:hotpath
func (bm *blockMgr) alloc(kind blockKind) (flash.PPN, error) {
	rr := &bm.dataRR
	if kind == blockTrans {
		rr = &bm.transRR
	}
	// The cursor walks the dies and wraps, which is the position a
	// free-running counter modulo numDies would give, without the division.
	i := *rr
	*rr = i + 1
	if *rr == bm.numDies {
		*rr = 0
	}
	if ppn, ok := bm.tryAllocOnDie(kind, i); ok {
		return ppn, nil
	}
	for off := 1; off < bm.numDies; off++ {
		if ppn, ok := bm.tryAllocOnDie(kind, (i+off)%bm.numDies); ok {
			return ppn, nil
		}
	}
	return flash.InvalidPPN, errf("out of free blocks (device full)")
}

// invalidate marks ppn invalid and enqueues its block as a GC candidate if
// the block is full.
//
//ftl:hotpath
func (bm *blockMgr) invalidate(ppn flash.PPN) error {
	if err := bm.chip.Invalidate(ppn); err != nil {
		return err
	}
	blk := bm.chip.Block(ppn)
	bm.tick++
	bm.lastMod[blk] = bm.tick
	bm.maybeEnqueue(blk)
	return nil
}

// maybeEnqueue inserts or re-keys blk in the victim heap when it is full,
// reclaimable and not an open frontier.
//
//ftl:hotpath
func (bm *blockMgr) maybeEnqueue(blk flash.BlockID) {
	if bm.isFrontier(blk) {
		return
	}
	if bm.kinds[blk] == blockFree {
		return
	}
	if bm.chip.WritePtr(blk) < bm.ppb {
		return // not fully programmed yet
	}
	invalid := bm.ppb - bm.chip.ValidCount(blk)
	if invalid == 0 {
		return // nothing to reclaim
	}
	if i := bm.victims.idx[blk]; i >= 0 {
		bm.victims.items[i].invalid = invalid
		bm.victims.fix(i)
		return
	}
	bm.victims.push(victim{blk: blk, invalid: invalid})
}

// popVictim returns the next GC victim under the configured policy, or -1
// when no block is reclaimable.
func (bm *blockMgr) popVictim() flash.BlockID {
	if bm.policy == GCCostBenefit {
		return bm.popVictimCostBenefit()
	}
	for len(bm.victims.items) > 0 {
		blk := bm.victims.remove(0)
		if bm.chip.ValidCount(blk) == bm.ppb {
			continue // defensive; re-keying should prevent this
		}
		return blk
	}
	return -1
}

// popVictimCostBenefit scans reclaimable blocks for the one maximizing the
// classic cost-benefit score age*(1-u)/(2u), where u is the valid fraction
// and age the time since the block's last invalidation. The chosen block is
// also removed from the greedy heap so the two structures stay coherent.
func (bm *blockMgr) popVictimCostBenefit() flash.BlockID {
	ppb := bm.ppb
	best := flash.BlockID(-1)
	bestScore := -1.0
	for b := 0; b < len(bm.kinds); b++ {
		blk := flash.BlockID(b)
		if bm.kinds[blk] == blockFree || bm.isFrontier(blk) {
			continue
		}
		if bm.chip.WritePtr(blk) < ppb {
			continue
		}
		valid := bm.chip.ValidCount(blk)
		invalid := ppb - valid
		if invalid == 0 {
			continue
		}
		age := float64(bm.tick - bm.lastMod[blk] + 1)
		var score float64
		if valid == 0 {
			score = age * float64(ppb) * 2 // free win: prefer oldest empty block
		} else {
			u := float64(valid) / float64(ppb)
			score = age * (1 - u) / (2 * u)
		}
		if score > bestScore {
			bestScore, best = score, blk
		}
	}
	if best >= 0 {
		bm.removeFromHeap(best)
	}
	return best
}

// removeFromHeap drops blk's pending victim entry, if any. Callers that
// collect a block outside popVictim (wear leveling) must use it to keep the
// heap coherent.
func (bm *blockMgr) removeFromHeap(blk flash.BlockID) {
	if i := bm.victims.idx[blk]; i >= 0 {
		bm.victims.remove(i)
	}
}

// release returns an erased block to its die's free list.
func (bm *blockMgr) release(blk flash.BlockID) {
	bm.kinds[blk] = blockFree
	die := bm.chip.DieOfBlock(blk)
	bm.free[die] = append(bm.free[die], blk)
}

type victim struct {
	blk     flash.BlockID
	invalid int
}

// victimHeap is an indexed max-heap over invalid counts; idx tracks each
// block's position (-1 when absent) so keys can be fixed in place. Like
// ssd.EventQueue it sifts over the plain slice instead of going through
// container/heap, which boxes every victim through `any` on push and pop.
// The sift order — which child is compared first, when a swap stops — is
// container/heap's exactly: blocks with equal invalid counts are popped in
// the order the heap's shape gives them, and that order picks GC victims
// and so feeds EventHash.
type victimHeap struct {
	items []victim
	idx   []int
}

func (h *victimHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.idx[h.items[i].blk] = i
	h.idx[h.items[j].blk] = j
}

// up sifts item j towards the root while it has more invalid pages than
// its parent.
func (h *victimHeap) up(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if h.items[j].invalid <= h.items[parent].invalid {
			break
		}
		h.swap(parent, j)
		j = parent
	}
}

// down sifts item i0 towards the leaves of items[:n] and reports whether it
// moved.
func (h *victimHeap) down(i0, n int) bool {
	i := i0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.items[right].invalid > h.items[left].invalid {
			child = right
		}
		if h.items[child].invalid <= h.items[i].invalid {
			break
		}
		h.swap(i, child)
		i = child
	}
	return i > i0
}

// push adds a block that is not in the heap.
//
//ftl:hotpath
func (h *victimHeap) push(v victim) {
	h.idx[v.blk] = len(h.items)
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
}

// fix restores the heap order after items[i].invalid changed.
//
//ftl:hotpath
func (h *victimHeap) fix(i int) {
	if !h.down(i, len(h.items)) {
		h.up(i)
	}
}

// remove takes item i (0 is the maximum) out of the heap and returns its
// block.
//
//ftl:hotpath
func (h *victimHeap) remove(i int) flash.BlockID {
	n := len(h.items) - 1
	h.swap(i, n)
	blk := h.items[n].blk
	h.items = h.items[:n]
	h.idx[blk] = -1
	if i < n {
		h.fix(i)
	}
	return blk
}
