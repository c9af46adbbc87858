// Package blockftl implements a block-level FTL, the coarse-grained end of
// the paper's §2.1 taxonomy.
//
// A block-level FTL maps logical blocks to physical blocks; a page's offset
// inside its block is fixed. The mapping table is tiny — 4 B per 256 KB
// block, which is exactly the budget the paper grants the page-level
// schemes' mapping caches (§5.1) — but any write that cannot continue the
// physical block's program order forces a copy-merge of the whole block,
// which is why the paper dismisses block-level FTLs for random writes. This
// implementation exists to ground that comparison (the mapping-granularity
// experiment of `cmd/experiments -exp ext`) and to document the cache-size
// convention.
package blockftl

import (
	"time"

	"repro/internal/ftl"
)

// Device is a standalone block-mapped SSD simulator: the shared block-mapped
// substrate with a copy-merge on every overwrite.
type Device struct {
	ftl.BlockMapped
}

// New builds a block-level device. The physical space is the logical space
// plus over-provisioning (merges need at least one spare block).
func New(cfg ftl.Config) (*Device, error) {
	d := &Device{}
	if err := d.Init("blockftl", cfg, 0, d.HomePage, d.writePage); err != nil {
		return nil, err
	}
	return d, nil
}

// writePage programs the page at its fixed offset when that page is still
// free; otherwise it performs the copy-merge that defines block-level FTL
// behaviour: the logical block is rewritten into a fresh physical block with
// the new page content at its offset and every other valid page copied, and
// the old block is erased. This is the full merge that makes block-level
// FTLs collapse under random writes.
func (d *Device) writePage(lpn int64) (time.Duration, error) {
	if lat, ok, err := d.WriteHome(lpn); ok || err != nil {
		return lat, err
	}
	// The superseded version is dropped first so the merge leaves its
	// offset free for the new one.
	old, _ := d.HomePage(lpn)
	if err := d.Flash.Invalidate(old); err != nil {
		return 0, err
	}
	acc, err := d.Merge(int(lpn / int64(d.PPB)))
	if err != nil {
		return 0, err
	}
	d.M.GCDataCollections++
	lat, _, err := d.WriteHome(lpn)
	return acc + lat, err
}
