package ftl

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
