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
	nfree   int               // free blocks over all dies, kept by popFree and release

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
	bm.nfree = n
	return bm
}

// freeCount returns the number of free blocks over all dies; maybeGC reads it
// on every page write.
func (bm *blockMgr) freeCount() int { return bm.nfree }

// popFree takes from the FRONT of die's free list (FIFO): erased blocks
// re-enter circulation in release order, so no block idles at the bottom of
// a stack accumulating an ever-growing wear deficit.
func (bm *blockMgr) popFree(die int) (flash.BlockID, bool) {
	if bm.frHead[die] >= len(bm.free[die]) {
		return -1, false
	}
	b := bm.free[die][bm.frHead[die]]
	bm.frHead[die]++
	bm.nfree--
	// Compact once the dead prefix dominates.
	if bm.frHead[die] > 64 && bm.frHead[die]*2 > len(bm.free[die]) {
		bm.free[die] = append(bm.free[die][:0], bm.free[die][bm.frHead[die]:]...)
		bm.frHead[die] = 0
	}
	return b, true
}

// isFrontier reports whether blk is an open write frontier of either kind.
// A frontier is opened from its die's own free list, so blk can only be a
// frontier of the die it lies on.
func (bm *blockMgr) isFrontier(blk flash.BlockID) bool {
	die := bm.chip.DieOfBlock(blk)
	return bm.dataFrontier[die] == blk || bm.transFrontier[die] == blk
}

// tryAllocOnDie returns the next free page of die's frontier for kind,
// opening a new block from die's free list when the frontier is full. It
// fails (without error) when the frontier is full and the die has no free
// block left.
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

// alloc returns the next free page for kind and the die it lies on, striping
// consecutive allocations of a kind across the dies. When the round-robin die
// cannot serve (frontier full, die out of free blocks), allocation falls back
// to the following dies in turn — a die running dry must degrade striping,
// not fail the write. The caller is responsible for keeping the free count
// above the GC threshold.
func (bm *blockMgr) alloc(kind blockKind) (flash.PPN, int, error) {
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
		return ppn, i, nil
	}
	for off := 1; off < bm.numDies; off++ {
		die := (i + off) % bm.numDies
		if ppn, ok := bm.tryAllocOnDie(kind, die); ok {
			return ppn, die, nil
		}
	}
	return flash.InvalidPPN, -1, errf("out of free blocks (device full)")
}

// invalidate marks ppn invalid and enqueues its block as a GC candidate if
// the block is full.
func (bm *blockMgr) invalidate(ppn flash.PPN) error {
	blk, err := bm.chip.MarkInvalid(ppn)
	if err != nil {
		return err
	}
	bm.tick++
	bm.lastMod[blk] = bm.tick
	bm.maybeEnqueue(blk)
	return nil
}

// maybeEnqueue inserts or re-keys blk in the victim heap when it is full,
// reclaimable and not an open frontier.
func (bm *blockMgr) maybeEnqueue(blk flash.BlockID) {
	if i := bm.victims.idx[blk]; i >= 0 {
		// A block in the heap is already known to be full, closed and
		// reclaimable (check audits it), so only its key moves — and only
		// up: the invalid count of a full block never falls, where a sift
		// down would compare it with its children and stop.
		bm.victims.items[i].invalid = bm.ppb - bm.chip.ValidCount(blk)
		bm.victims.up(i)
		return
	}
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
	bm.nfree++
}

// check audits the block manager against a recount; CheckConsistency runs
// it, and so does every operation under -tags ftlsan. The free counter must
// equal the free lists' length, every free list hold free blocks of its own
// die, every frontier be an open block of its kind on its own die, and the
// victim heap be ordered and indexed and hold exactly the full, non-frontier
// blocks with invalid pages, each keyed by its invalid count.
func (bm *blockMgr) check() error {
	onFree := make([]bool, len(bm.kinds))
	free := 0
	for die := 0; die < bm.numDies; die++ {
		for _, b := range bm.free[die][bm.frHead[die]:] {
			switch {
			case onFree[b]:
				return errf("block %d is on a free list twice", b)
			case bm.chip.DieOfBlock(b) != die:
				return errf("block %d of die %d is on die %d's free list", b, bm.chip.DieOfBlock(b), die)
			case bm.kinds[b] != blockFree:
				return errf("block %d on die %d's free list has kind %d", b, die, bm.kinds[b])
			}
			onFree[b] = true
			free++
		}
	}
	if free != bm.nfree {
		return errf("free counter %d, free lists hold %d blocks", bm.nfree, free)
	}
	for b, k := range bm.kinds {
		if k == blockFree && !onFree[b] {
			return errf("free block %d is on no free list", b)
		}
	}
	for die := 0; die < bm.numDies; die++ {
		for _, fr := range [...]struct {
			blk  flash.BlockID
			kind blockKind
		}{{bm.dataFrontier[die], blockData}, {bm.transFrontier[die], blockTrans}} {
			if fr.blk < 0 {
				continue
			}
			if on := bm.chip.DieOfBlock(fr.blk); on != die {
				return errf("die %d's frontier %d lies on die %d", die, fr.blk, on)
			}
			if bm.kinds[fr.blk] != fr.kind {
				return errf("die %d's frontier %d has kind %d, want %d", die, fr.blk, bm.kinds[fr.blk], fr.kind)
			}
		}
	}
	h := &bm.victims
	for i, v := range h.items {
		if h.idx[v.blk] != i {
			return errf("victim heap: items[%d] is block %d, indexed at %d", i, v.blk, h.idx[v.blk])
		}
		if p := (i - 1) / 2; i > 0 && h.items[p].invalid < v.invalid {
			return errf("victim heap: items[%d] keyed %d under its parent's %d", i, v.invalid, h.items[p].invalid)
		}
	}
	for b, i := range h.idx {
		blk := flash.BlockID(b)
		invalid := bm.ppb - bm.chip.ValidCount(blk)
		reclaimable := bm.kinds[b] != blockFree && !bm.isFrontier(blk) &&
			bm.chip.WritePtr(blk) == bm.ppb && invalid > 0
		switch {
		case i >= len(h.items) || i >= 0 && h.items[i].blk != blk:
			return errf("victim heap: block %d indexed at %d, not there", b, i)
		case reclaimable && i < 0:
			return errf("block %d is full with %d invalid pages and not in the victim heap", b, invalid)
		case !reclaimable && i >= 0:
			return errf("block %d (kind %d, write pointer %d, %d invalid) is in the victim heap",
				b, bm.kinds[b], bm.chip.WritePtr(blk), invalid)
		case i >= 0 && h.items[i].invalid != invalid:
			return errf("victim heap: block %d keyed %d with %d invalid pages", b, h.items[i].invalid, invalid)
		}
	}
	return nil
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
func (h *victimHeap) push(v victim) {
	h.idx[v.blk] = len(h.items)
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
}

// fix restores the heap order after items[i].invalid changed.
func (h *victimHeap) fix(i int) {
	if !h.down(i, len(h.items)) {
		h.up(i)
	}
}

// remove takes item i (0 is the maximum) out of the heap and returns its
// block.
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
