// Package optimal implements the paper's "Optimal" FTL: a page-level FTL
// whose entire mapping table is cached in RAM. Address translation never
// touches flash, so it lower-bounds the overhead any demand-based scheme can
// achieve (§5.1). Mappings are kept consistent in the in-flash translation
// pages lazily, matching the paper's accounting in which the optimal FTL
// incurs no translation page operations.
package optimal

import (
	"repro/internal/flash"
	"repro/internal/ftl"
)

// FTL is the optimal translator. Create with New.
type FTL struct {
	table []flash.PPN
}

var _ ftl.Translator = (*FTL)(nil)

// New returns an optimal FTL for a device with numLPNs logical pages.
func New(numLPNs int64) *FTL {
	t := make([]flash.PPN, numLPNs)
	for i := range t {
		t[i] = flash.InvalidPPN
	}
	return &FTL{table: t}
}

// Name implements ftl.Translator.
func (f *FTL) Name() string { return "Optimal" }

// Translate implements ftl.Translator. Every lookup hits.
func (f *FTL) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	env.NoteLookup(true)
	return f.table[lpn], nil
}

// Lookup implements ftl.Translator. An unmapped slot is left to the
// device's persisted view, which agrees once the table is warm (a trim
// clears both): before Warm, the slots GC has refreshed are the only ones
// the table knows.
func (f *FTL) Lookup(lpn ftl.LPN) (flash.PPN, bool) {
	ppn := f.table[lpn]
	return ppn, ppn.Valid()
}

// Update implements ftl.Translator.
func (f *FTL) Update(env ftl.Env, lpn ftl.LPN, ppn flash.PPN) error {
	f.table[lpn] = ppn
	return nil
}

// BeginRequest implements ftl.Translator.
func (f *FTL) BeginRequest(first, last ftl.LPN, write bool) {}

// Discard implements ftl.Translator: the trimmed page's resident entry is
// cleared in RAM; the device rewrites the translation page itself.
func (f *FTL) Discard(lpn ftl.LPN) {
	f.table[lpn] = flash.InvalidPPN
}

// DirtyPages implements ftl.Translator: the optimal FTL's accounting incurs
// no translation-page operations, so no page is ever dirty and a host flush
// barrier is free.
func (f *FTL) DirtyPages(set []uint64, whole bool) {}

// TakeDirty implements ftl.Translator: there is nothing to take.
func (f *FTL) TakeDirty(v ftl.VTPN, ups []ftl.EntryUpdate) []ftl.EntryUpdate { return ups }

// RefreshGC implements ftl.Translator: all entries are resident, so every
// update is a GC hit with zero flash cost.
func (f *FTL) RefreshGC(lpn ftl.LPN, ppn flash.PPN) bool {
	f.table[lpn] = ppn
	return true
}

// Warm pre-loads the table from the device's persisted state; call after
// Format so that reads of formatted pages translate correctly.
func (f *FTL) Warm(persisted func(ftl.LPN) flash.PPN) {
	for lpn := range f.table {
		f.table[lpn] = persisted(ftl.LPN(lpn))
	}
}

// Snapshot implements ftl.Inspector. The optimal FTL caches everything and
// writes nothing back, so the snapshot reports the full table as clean.
func (f *FTL) Snapshot() ftl.CacheSnapshot {
	return ftl.CacheSnapshot{
		Entries:   len(f.table),
		TPNodes:   0,
		UsedBytes: int64(len(f.table)) * ftl.EntryBytesRAM,
	}
}
