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
