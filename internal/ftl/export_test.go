package ftl

import "unsafe"

// GCMoveBytes is the size of one entry of collect's move scratch.
const GCMoveBytes = unsafe.Sizeof(gcMove{})

// ScanEveryFold makes foldTPPersist walk the whole page on every call, as it
// did before unmapped[] existed: the reference device of the fold
// differential test. It overstates every page's count so the early return
// never fires; setPersist moves the counts by ±1 around the offset, so they
// never come back to zero. CheckConsistency's recount fails on such a
// device, by construction.
func (d *Device) ScanEveryFold() {
	for v := range d.unmapped {
		d.unmapped[v] += 1 << 30
	}
}

// BlockMgrImage hands put the block manager's state, one value at a time in
// a fixed order: per die the free FIFO from its head and the two frontiers,
// then the round-robin cursors and the invalidation tick, every block's kind
// and last-invalidation tick, and the victim heap's array.
func (d *Device) BlockMgrImage(put func(int64)) {
	bm := d.bm
	for die := 0; die < bm.numDies; die++ {
		free := bm.free[die][bm.frHead[die]:]
		put(int64(len(free)))
		for _, b := range free {
			put(int64(b))
		}
		put(int64(bm.dataFrontier[die]))
		put(int64(bm.transFrontier[die]))
	}
	put(int64(bm.dataRR))
	put(int64(bm.transRR))
	put(bm.tick)
	for b, k := range bm.kinds {
		put(int64(k))
		put(bm.lastMod[b])
	}
	put(int64(len(bm.victims.items)))
	for _, v := range bm.victims.items {
		put(int64(v.blk))
		put(int64(v.invalid))
	}
}

// CollectOne collects the block garbage collection would pick next, as
// maybeGC does, and reports whether there was one. Outside a request no
// operation reaches the timing half, so what it costs is the collection's
// logical work alone.
func (d *Device) CollectOne() (bool, error) {
	victim := d.bm.popVictim()
	if victim < 0 {
		return false, nil
	}
	d.inGC, d.ph = true, phaseGC
	defer func() { d.inGC, d.ph = false, phaseAT }()
	return true, d.collect(victim)
}
