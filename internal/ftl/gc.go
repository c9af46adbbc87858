package ftl

import (
	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/obs/live"
)

// maybeGC runs garbage collection until the free-block count exceeds the
// configured threshold. It is a no-op while GC itself is running (migrations
// allocate pages; recursing would deadlock the free-list accounting).
func (d *Device) maybeGC() error {
	if d.inGC {
		return nil
	}
	threshold := d.gcThreshold
	if d.bm.freeCount() > threshold {
		return nil
	}
	d.inGC = true
	prevPhase := d.ph
	d.ph = phaseGC
	defer func() {
		d.inGC = false
		d.ph = prevPhase
	}()
	for d.bm.freeCount() <= threshold {
		victim := d.bm.popVictim()
		if victim < 0 {
			return errf("GC: no reclaimable block (free %d ≤ threshold %d)",
				d.bm.freeCount(), threshold)
		}
		if err := d.collect(victim); err != nil {
			return err
		}
	}
	if d.cfg.WearLevelThreshold > 0 {
		if err := d.maybeWearLevel(); err != nil {
			return err
		}
	}
	return nil
}

// maybeWearLevel performs static wear leveling: while the erase-count
// spread exceeds the configured threshold, the coldest full block's content
// is migrated to the write frontier and the block erased, so cold data
// stops pinning low-wear blocks out of circulation.
func (d *Device) maybeWearLevel() error {
	ppb := d.cfg.PagesPerBlock
	for {
		minBlk, minErase, maxErase := flash.BlockID(-1), int(^uint(0)>>1), 0
		for b := range d.bm.kinds {
			blk := flash.BlockID(b)
			ec := d.chip.EraseCount(blk)
			if ec > maxErase {
				maxErase = ec
			}
			if ec < minErase && d.bm.kinds[blk] != blockFree &&
				!d.bm.isFrontier(blk) &&
				d.chip.WritePtr(blk) == ppb {
				minErase = ec
				minBlk = blk
			}
		}
		if minBlk < 0 || maxErase-minErase <= d.cfg.WearLevelThreshold {
			return nil
		}
		// A leveling move consumes frontier space (the migrated pages plus
		// their mapping updates) and frees only the cold block; keep free
		// headroom by reclaiming a regular victim first — and rescan, since
		// that victim may have been the chosen cold block. Stop leveling
		// when no victim is available rather than running the device dry.
		if d.bm.freeCount() <= d.gcThreshold+2 {
			victim := d.bm.popVictim()
			if victim < 0 {
				return nil
			}
			if err := d.collect(victim); err != nil {
				return err
			}
			continue
		}
		d.bm.removeFromHeap(minBlk)
		if err := d.collect(minBlk); err != nil {
			return err
		}
		d.m.WearLevelMoves++
		if c := d.live; c != nil {
			c.Recorder().Append(live.Record{
				SimNS:      int64(d.tl.sched.Now()),
				Kind:       live.KindWearLevel,
				Off:        int64(minBlk),
				CompleteNS: int64(d.tl.sched.Now()),
			})
		}
	}
}

// collect reclaims one victim block: migrate its valid pages, update the
// affected mappings (via the Translator for data pages, the GTD for
// translation pages), erase it and return it to the free list. The data
// moves are gathered in d.gcMoves, reused by every collection: collect never
// re-enters (maybeGC is a no-op under inGC) and translators do not keep the
// slice past OnGCDataMoves.
//
//ftl:hotpath
func (d *Device) collect(blk flash.BlockID) error {
	kind := d.bm.kinds[blk]
	ppb := d.cfg.PagesPerBlock
	validCount := d.chip.ValidCount(blk)

	moves := d.gcMoves[:0]
	for off := 0; off < ppb; off++ {
		ppn := d.chip.PageAt(blk, off)
		if d.chip.State(ppn) != flash.PageValid {
			continue
		}
		meta := d.chip.MetaOf(ppn)
		switch meta.Kind {
		case flash.KindData:
			lpn := LPN(meta.Tag)
			if d.truth[lpn] != ppn {
				return errf("GC: stale meta: lpn %d maps to %d, victim page %d", lpn, d.truth[lpn], ppn)
			}
			newPPN, err := d.migratePage(ppn, meta)
			if err != nil {
				return err
			}
			d.truth[lpn] = newPPN
			d.m.GCDataMigrations++
			moves = append(moves, GCMove{LPN: lpn, OldPPN: ppn, NewPPN: newPPN})
		case flash.KindTranslation:
			v := VTPN(meta.Tag)
			if d.gtd[v] != ppn {
				return errf("GC: stale meta: vtpn %d maps to %d, victim page %d", v, d.gtd[v], ppn)
			}
			newPPN, err := d.migratePage(ppn, meta)
			if err != nil {
				return err
			}
			d.gtd[v] = newPPN
			d.foldTPPersist(v)
			d.m.GCTransMigrations++
		default:
			return errf("GC: page %d has kind %v", ppn, meta.Kind)
		}
	}

	if len(moves) > 0 {
		// The migrated data pages' mapping entries must be updated; the
		// Translator batches updates sharing a translation page (all
		// schemes inherit DFTL's GC-time batch update).
		if err := d.tr.OnGCDataMoves(d, moves); err != nil {
			return err
		}
	}

	lat, err := d.chipErase(blk)
	if err != nil {
		return err
	}
	d.issueBlock(blk, lat, obs.OpErase)
	d.m.FlashErases++
	recKind := live.KindGCData
	switch kind {
	case blockData:
		d.m.GCDataCollections++
		d.m.GCDataValidSum += int64(validCount)
	case blockTrans:
		d.m.GCTransCollections++
		d.m.GCTransValidSum += int64(validCount)
		recKind = live.KindGCTrans
	default:
		return errf("GC: victim %d has kind %v", blk, kind)
	}
	d.bm.release(blk)
	if c := d.live; c != nil {
		// One scheduler event per collection in the flight recorder: the
		// victim block and how many valid pages it forced us to migrate.
		// The logical half reads the clock here only because a live cell
		// keeps the timing half inline (Observed): the clock is the last
		// retired request's, as when the collection was issued.
		c.Recorder().Append(live.Record{
			SimNS:      int64(d.tl.sched.Now()),
			Kind:       recKind,
			Off:        int64(blk),
			N:          int64(validCount),
			CompleteNS: int64(d.tl.sched.Now()),
		})
	}
	return nil
}

// migratePage copies one valid page to the write frontier of its kind
// (read + program) and invalidates the original.
//
//ftl:hotpath
func (d *Device) migratePage(ppn flash.PPN, meta flash.Meta) (flash.PPN, error) {
	kind := blockData
	readOp, progOp := obs.OpDataRead, obs.OpDataProgram
	if meta.Kind == flash.KindTranslation {
		kind = blockTrans
		readOp, progOp = obs.OpTransRead, obs.OpTransProgram
	}
	lat, err := d.chipRead(ppn)
	if err != nil {
		return flash.InvalidPPN, err
	}
	d.issuePage(ppn, lat, readOp, sumGC)
	d.m.FlashReads++
	newPPN, err := d.bm.alloc(kind)
	if err != nil {
		return flash.InvalidPPN, err
	}
	// The migrated copy is the newer physical version of the same logical
	// page; a fresh sequence number lets crash recovery prefer it.
	meta.Seq = d.nextSeq()
	lat, err = d.chipProgram(newPPN, meta)
	if err != nil {
		return flash.InvalidPPN, err
	}
	d.issuePage(newPPN, lat, progOp, sumGC)
	d.m.FlashPrograms++
	// Invalidate directly on the chip: the old page is inside the victim
	// block being collected, which must not re-enter the GC candidate heap.
	if err := d.chip.Invalidate(ppn); err != nil {
		return flash.InvalidPPN, err
	}
	return newPPN, nil
}
