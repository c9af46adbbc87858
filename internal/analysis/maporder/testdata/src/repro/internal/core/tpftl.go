// Package core reconstructs the first historical map-order bug: TPFTL's
// OnGCDataMoves grouped the GC map updates per translation page in a map and
// then ranged over it calling env.WriteTP, so the translation-page write
// order, and with it physical page allocation, die assignment and the whole
// downstream schedule, permuted from run to run.
package core

type VTPN int32

type PPN int64

type EntryUpdate struct {
	Off int
	PPN PPN
}

type GCMove struct {
	LPN    int64
	NewPPN PPN
}

type Env interface {
	WriteTP(v VTPN, ups []EntryUpdate) error
}

// OnGCDataMoves is the buggy shape.
func OnGCDataMoves(env Env, moves []GCMove, entriesPerTP int64) error {
	pending := make(map[VTPN][]EntryUpdate)
	for _, mv := range moves {
		v := VTPN(mv.LPN / entriesPerTP)
		pending[v] = append(pending[v], EntryUpdate{Off: int(mv.LPN % entriesPerTP), PPN: mv.NewPPN})
	}
	for v, ups := range pending { // want `range over map pending`
		if err := env.WriteTP(v, ups); err != nil {
			return err
		}
	}
	return nil
}

// OnGCDataMovesFixed walks the translation pages in ascending order; the
// map is only looked up.
func OnGCDataMovesFixed(env Env, pending map[VTPN][]EntryUpdate, numTPs int) error {
	for v := VTPN(0); int(v) < numTPs; v++ {
		if ups, ok := pending[v]; ok {
			if err := env.WriteTP(v, ups); err != nil {
				return err
			}
		}
	}
	return nil
}
