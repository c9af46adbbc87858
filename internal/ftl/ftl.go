// Package ftl provides the demand-based page-level FTL framework shared by
// every FTL scheme in this repository.
//
// The framework implements everything a scheme does NOT differentiate on:
// the SSD device model (flash geometry, over-provisioning, block allocation
// with separate data and translation write frontiers, greedy garbage
// collection for both block kinds), the on-flash mapping table (translation
// pages addressed through the RAM-resident global translation directory),
// request splitting and FCFS queuing-inclusive timing, and the full metrics
// accounting the TPFTL paper's evaluation reports.
//
// A scheme — DFTL, S-FTL, CDFTL, TPFTL, the optimal FTL — supplies only its
// mapping-cache policy by implementing Translator. The device verifies every
// translated read against a ground-truth table, so a policy bug surfaces as
// a hard error rather than silently skewed statistics.
package ftl

import (
	"fmt"
	"sort"

	"repro/internal/flash"
)

// LPN is a logical page number.
type LPN int64

// VTPN is a virtual translation page number: LPN / EntriesPerTP.
type VTPN int32

// EntryBytesInFlash is the size of one mapping entry inside a translation
// page. Only the PPN is stored; the LPN is implied by the entry's offset
// (§3.2 of the paper).
const EntryBytesInFlash = 4

// EntryBytesRAM is the cache cost of one uncompressed mapping entry
// (4 B LPN + 4 B PPN), DFTL's unit.
const EntryBytesRAM = 8

// EntryUpdate is one slot modification applied to a translation page.
type EntryUpdate struct {
	Off int // entry offset within the translation page
	PPN flash.PPN
}

// SortUpdates orders updates by ascending slot offset, giving batched
// writebacks a deterministic entry order regardless of map iteration.
func SortUpdates(ups []EntryUpdate) {
	sort.Slice(ups, func(i, j int) bool { return ups[i].Off < ups[j].Off })
}

// SortedVTPNs returns the map's keys in ascending order, so multi-page
// flush writebacks visit translation pages deterministically.
func SortedVTPNs[V any](m map[VTPN]V) []VTPN {
	keys := make([]VTPN, 0, len(m))
	for v := range m {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Translator is the mapping-cache policy of one FTL scheme. Implementations
// perform flash operations only through the Env they are handed, which
// charges latencies to the in-flight request and attributes them to the
// paper's counters. The device owns garbage collection's map updates; see
// RefreshGC, DirtyAppender and GCBatchEnder.
type Translator interface {
	// Name returns the scheme name used in reports ("DFTL", "TPFTL", ...).
	Name() string

	// Translate returns the PPN mapped to lpn. On a cache miss the
	// implementation loads the entry from flash via env.ReadTP and must
	// call env.NoteLookup. It returns flash.InvalidPPN for an unmapped
	// page.
	Translate(env Env, lpn LPN) (flash.PPN, error)

	// Update records a new mapping lpn→ppn after a data-page write. The
	// resulting cache entry is dirty until written back. The device calls
	// Update immediately after Translate of the same lpn, so
	// implementations may rely on the entry being resident; a standalone
	// Update must still work but may not be GC-coherent if its own
	// evictions trigger garbage collection.
	Update(env Env, lpn LPN, ppn flash.PPN) error

	// BeginRequest announces the page span of the next user request
	// before its per-page operations. Schemes that exploit request-level
	// context (TPFTL's request-level prefetching) use it; others ignore it.
	BeginRequest(first, last LPN, write bool)

	// RefreshGC offers the new location of a page garbage collection
	// migrated. A cached entry is updated in RAM and marked dirty, with no
	// flash operation or cache reordering, and true returned (a GC hit).
	// On false (a GC miss) the device writes the update itself, batched
	// per translation page.
	RefreshGC(lpn LPN, ppn flash.PPN) (cached bool)

	// Discard drops any cached entry for lpn without writing it back: the
	// host has trimmed the page, so a dirty entry's pending mapping must
	// never reach flash. Pure RAM bookkeeping — no Env, no flash cost. The
	// device invalidates truth/persist and the flash pages itself.
	Discard(lpn LPN)

	// FlushDirty writes every dirty cached entry back to its translation
	// page (batched per page, deterministic page order) and marks the
	// cache clean. A host flush bounds dirty-entry loss to zero: after
	// FlushDirty returns, no acknowledged mapping lives only in RAM.
	FlushDirty(env Env) error
}

// CacheSnapshot describes the mapping-cache contents at one instant; the
// Fig. 1 / Fig. 2 instrumentation samples it periodically.
type CacheSnapshot struct {
	Entries      int // cached mapping entries
	DirtyEntries int
	TPNodes      int // distinct translation pages with ≥1 cached entry
	UsedBytes    int64
	// DirtyPerPage maps each cached translation page to its number of
	// dirty entries (includes pages with zero dirty entries).
	DirtyPerPage map[VTPN]int
}

// Inspector is implemented by schemes that expose cache introspection.
type Inspector interface {
	Snapshot() CacheSnapshot
}

// GeometryAware is implemented by schemes that size internal structures
// from the device geometry. NewDevice calls SetGeometry at construction, so
// a scheme never has to guess the entries-per-translation-page count before
// its first Translate (whose Env would otherwise be the only source).
type GeometryAware interface {
	SetGeometry(entriesPerTP int)
}

// Warmer is implemented by schemes that must learn the post-format mapping
// (the optimal FTL holds the whole table in RAM). The harness calls Warm
// right after Device.Format with the device's persisted-view accessor.
type Warmer interface {
	Warm(persisted func(LPN) flash.PPN)
}

// DirtyAppender is implemented by schemes whose GC-time translation-page
// write also carries the page's cached dirty entries (TPFTL's §4.4 batch
// update). Before writing page v's misses ups, the device calls AppendDirty,
// which appends v's dirty entries, marks them clean and counts them.
type DirtyAppender interface {
	AppendDirty(v VTPN, ups []EntryUpdate) ([]EntryUpdate, int)
}

// GCBatchEnder is implemented by schemes that act after a collection's last
// translation-page write (S-FTL trims back to budget what GC hits grew).
type GCBatchEnder interface {
	EndGCBatch(env Env) error
}

// Env is the device interface handed to Translator implementations.
type Env interface {
	// EntriesPerTP returns the number of mapping entries per translation
	// page (1024 with 4 KB pages).
	EntriesPerTP() int
	// NumTPs returns the number of translation pages.
	NumTPs() int
	// NumLPNs returns the logical page count.
	NumLPNs() int64

	// ReadTP reads translation page v from flash (cost: one page read)
	// and returns its entries, indexed by offset. The returned slice is a
	// read-only view of device state, not a copy: a write through it
	// corrupts the on-flash mapping table, and any other Env call may
	// change what it shows. Callers must not modify it or retain it
	// across other Env calls; copy what must outlive the next call.
	ReadTP(v VTPN) ([]flash.PPN, error)

	// WriteTP updates translation page v in flash with the given slot
	// updates. Unless fullPage is set, the cost is a read-modify-write
	// (one page read + one page write, the Tfr+Tfw of Eq. 1); with
	// fullPage, the caller holds the entire page content in RAM (S-FTL)
	// and only the page write is charged.
	WriteTP(v VTPN, updates []EntryUpdate, fullPage bool) error

	// NoteLookup records one address-translation cache lookup.
	NoteLookup(hit bool)
	// NoteReplacement records one cache-entry replacement and whether the
	// victim was dirty (the paper's Prd numerator/denominator).
	NoteReplacement(dirty bool)
	// NoteBatchWriteback records how many dirty entries one translation
	// page update cleaned (batch-update efficiency instrumentation).
	NoteBatchWriteback(cleaned int)
}

// VTPNOf returns the translation page holding lpn.
func VTPNOf(lpn LPN, entriesPerTP int) VTPN { return VTPN(lpn / LPN(entriesPerTP)) }

// OffOf returns lpn's slot within its translation page.
func OffOf(lpn LPN, entriesPerTP int) int { return int(lpn % LPN(entriesPerTP)) }

// LPNAt returns the LPN of slot off in translation page v.
func LPNAt(v VTPN, off, entriesPerTP int) LPN { return LPN(v)*LPN(entriesPerTP) + LPN(off) }

// Error strings share this prefix for easy attribution in mixed logs.
func errf(format string, args ...any) error {
	return fmt.Errorf("ftl: "+format, args...)
}
