package ftl

import (
	"repro/internal/flash"
)

// RecoveredState is the mapping rebuilt by a crash-recovery scan.
type RecoveredState struct {
	// Mapping is the reconstructed LPN→PPN mapping.
	Mapping []flash.PPN
	// GTD is the reconstructed VTPN→physical translation page directory.
	GTD []flash.PPN
	// ScannedPages counts the physical pages examined (the recovery cost
	// a real device pays at mount time: one OOB read per programmed page).
	ScannedPages int64
}

// RecoverMapping simulates power-failure recovery: it rebuilds the complete
// logical-to-physical mapping and the global translation directory from
// nothing but the per-page out-of-band metadata (logical tag + program
// sequence number), exactly as a demand-based FTL must after losing its RAM
// — including every dirty mapping-cache entry that never reached a
// translation page.
//
// For each logical page (and each translation page), the programmed
// physical page with the highest sequence number is the live version; any
// older duplicates are garbage from before the crash. The paper's §1 cites
// vulnerability to power failure as a reason to keep the RAM mapping cache
// small; this scan is the recovery path that makes that safe.
//
// Tests compare the recovered state against the device's live state: they
// must agree exactly, proving the OOB metadata alone always suffices.
func (d *Device) RecoverMapping() (*RecoveredState, error) {
	rs := &RecoveredState{
		Mapping: make([]flash.PPN, d.logicalPages),
		GTD:     make([]flash.PPN, d.numTPs),
	}
	dataSeq := make([]int64, d.logicalPages)
	gtdSeq := make([]int64, d.numTPs)
	for i := range rs.Mapping {
		rs.Mapping[i] = flash.InvalidPPN
		dataSeq[i] = -1
	}
	for i := range rs.GTD {
		rs.GTD[i] = flash.InvalidPPN
		gtdSeq[i] = -1
	}

	cfg := d.chip.Config()
	for b := 0; b < cfg.NumBlocks; b++ {
		blk := flash.BlockID(b)
		for off := 0; off < cfg.PagesPerBlock; off++ {
			ppn := d.chip.PageAt(blk, off)
			// A real scan cannot distinguish "valid" from "superseded":
			// both are programmed. Only erased pages are skipped.
			if d.chip.State(ppn) == flash.PageFree {
				continue
			}
			rs.ScannedPages++
			m := d.chip.MetaOf(ppn)
			switch m.Kind {
			case flash.KindData:
				lpn := m.Tag
				if lpn < 0 || lpn >= d.logicalPages {
					return nil, errf("recovery: data page %d tagged with lpn %d out of range", ppn, lpn)
				}
				if m.Seq > dataSeq[lpn] {
					dataSeq[lpn] = m.Seq
					rs.Mapping[lpn] = ppn
				}
			case flash.KindTranslation:
				v := m.Tag
				if v < 0 || v >= int64(d.numTPs) {
					return nil, errf("recovery: translation page %d tagged with vtpn %d out of range", ppn, v)
				}
				if m.Seq > gtdSeq[v] {
					gtdSeq[v] = m.Seq
					rs.GTD[v] = ppn
				}
			default:
				return nil, errf("recovery: page %d has kind %v", ppn, m.Kind)
			}
		}
	}

	// TRIM demotion: a discard leaves the old data page programmed — OOB
	// alone would resurrect it. The discard's durable record is the
	// translation-page rewrite that cleared the slot, so whenever the
	// newest translation page of lpn's TP is fresher than the newest data
	// page tagged lpn AND that page's slot for lpn is unmapped, the data
	// page is pre-trim garbage. A real scan reads the slot from the
	// translation page content itself; the simulator models translation
	// page content in persist, which is mutated to InvalidPPN only after a
	// trim's rewrite succeeded, and every translation-page program folds
	// pending live mappings into its content first (foldTPPersist) — so
	// "newer TP + unmapped slot" can never misfire on a mapping whose
	// writeback was merely pending.
	for lpn := int64(0); lpn < d.logicalPages; lpn++ {
		if rs.Mapping[lpn] == flash.InvalidPPN {
			continue
		}
		v := int64(VTPNOf(LPN(lpn), d.entriesPerTP))
		if gtdSeq[v] > dataSeq[lpn] && d.persist[lpn] == flash.InvalidPPN {
			rs.Mapping[lpn] = flash.InvalidPPN
		}
	}
	return rs, nil
}

// VerifyRecoverable runs a recovery scan and checks it reproduces the
// device's live mapping (Mapped) exactly; any divergence means the on-flash
// metadata would not survive a power failure.
func (d *Device) VerifyRecoverable() error {
	rs, err := d.RecoverMapping()
	if err != nil {
		return err
	}
	for lpn := int64(0); lpn < d.logicalPages; lpn++ {
		if live := d.Mapped(LPN(lpn)); rs.Mapping[lpn] != live {
			return errf("recovery: lpn %d rebuilt as %d, live %d", lpn, rs.Mapping[lpn], live)
		}
	}
	for v := 0; v < d.numTPs; v++ {
		if rs.GTD[v] != d.gtd[v] {
			return errf("recovery: vtpn %d rebuilt as %d, live %d", v, rs.GTD[v], d.gtd[v])
		}
	}
	return nil
}
