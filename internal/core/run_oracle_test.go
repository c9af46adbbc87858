package core

// The miss path evicts and installs runs of entries as a whole (evictRun,
// addRun). This file keeps the one-entry-at-a-time miss path they replaced as
// a reference — a removeEntry per victim, an addEntry per prefetched entry —
// and drives both in lock-step through identical devices, comparing the
// caches entry by entry after every request.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/trace"
)

// refFTL is TPFTL with the reference miss path: Translate and Update below,
// everything else the FTL's own. The counters record which ends of an
// eviction run and which load paths a sequence reached.
type refFTL struct {
	*FTL
	cov *runCoverage
}

type runCoverage struct {
	drops      int // runs that emptied and dropped their node
	avgEnds    int // HotnessAvg runs that ended with the node no longer the coldest
	floorEnds  int // runs that ended at the floor with the node still linked
	dirtyEnds  int // runs that ended on a dirty victim after clean ones
	splits     int // clean-first runs with clean victims on both sides of a dirty entry
	shrinks    int // loads whose prefetch rule 2 cut short or dropped
	prefetches int // loads that installed prefetched entries
}

func (r refFTL) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	f := r.FTL
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))
	if tp := f.tpAt(v); tp != nil {
		if e := f.entryAt(tp, off); e != nil {
			env.NoteLookup(true)
			f.touch(tp, e)
			return e.ppn, nil
		}
	}
	env.NoteLookup(false)
	return r.load(env, lpn, v, off)
}

// load is FTL.load with the prefetched entries installed one addEntry each.
func (r refFTL) load(env ftl.Env, lpn ftl.LPN, v ftl.VTPN, off int32) (flash.PPN, error) {
	f := r.FTL
	f.reserveEntries(env)
	tp := f.tpAt(v)
	pageEnd := int32(f.ePerTP)
	if lim := env.NumLPNs() - int64(v)*int64(f.ePerTP); lim < int64(pageEnd) {
		pageEnd = int32(lim)
	}
	extras := f.prefetchSet(tp, lpn, off, pageEnd)
	asked := len(extras)

	f.loadVictim = -1
	defer func() { f.loadPrefetchPending = false }()
	victimNode := ftl.VTPN(-1)
	for {
		base := f.entryBytes
		if f.tpAt(v) == nil {
			base += f.nodeBytes
		}
		floor := f.cfg.CacheBytes - base - int64(len(extras))*f.entryBytes
		if f.used <= floor {
			break
		}
		if len(extras) > 0 {
			cold := ftl.VTPN(-1)
			freeable := int64(0)
			if coldest := f.pages.Back(); coldest != nil {
				tpc := coldest.Value
				cold = tpc.vtpn
				freeable = int64(tpc.count)*f.entryBytes + f.nodeBytes
			}
			if victimNode >= 0 && cold != victimNode {
				extras = extras[:0]
			} else {
				room := f.cfg.CacheBytes - f.used + freeable - base
				if n := max(room/f.entryBytes, 0); n < int64(len(extras)) {
					extras = extras[:n]
				}
				if len(extras) > 0 {
					victimNode = cold
				}
			}
			floor = f.cfg.CacheBytes - base - int64(len(extras))*f.entryBytes
			if f.used <= floor {
				break
			}
		}
		f.loadPrefetchPending = len(extras) > 0
		evicted, err := r.evictRun(env, floor)
		if err != nil {
			return flash.InvalidPPN, err
		}
		if !evicted {
			if len(extras) > 0 {
				extras = extras[:0]
				continue
			}
			return flash.InvalidPPN, fmt.Errorf("tpftl: budget %d cannot hold one entry", f.cfg.CacheBytes)
		}
	}
	f.loadPrefetchPending = false
	if len(extras) < asked {
		r.cov.shrinks++
	}

	vals, err := env.ReadTP(v)
	if err != nil {
		return flash.InvalidPPN, err
	}
	tp = f.tpAt(v)
	if tp == nil {
		tp = f.newTPNode(v)
	}
	loaded := 0
	for _, xo := range extras {
		if tp.byOff[xo] != 0 {
			continue // installed by a nested path meanwhile
		}
		f.addEntry(tp, xo, vals[xo], false)
		loaded++
	}
	if loaded > 0 {
		r.cov.prefetches++
		if d, ok := env.(*ftl.Device); ok {
			d.NotePrefetch(loaded)
		}
	}
	ppn := vals[off]
	if e := f.entryAt(tp, off); e != nil {
		f.touch(tp, e)
		return e.ppn, nil
	}
	e := f.addEntry(tp, off, ppn, false)
	f.touch(tp, e)
	return ppn, nil
}

// evictRun is FTL.evictRun with one removeEntry, and so one unlink, one set
// of counter updates and, under HotnessAvg, one reposition, per victim.
func (r refFTL) evictRun(env ftl.Env, floor int64) (bool, error) {
	f := r.FTL
	coldN := f.pages.Back()
	if coldN == nil {
		return false, nil
	}
	tp := coldN.Value
	if f.loadPrefetchPending {
		if f.loadVictim < 0 {
			f.loadVictim = tp.vtpn
		} else if tp.vtpn != f.loadVictim && f.rule2Err == nil {
			f.rule2Err = fmt.Errorf("tpftl: §4.5 rule 2 violated: one prefetching load evicted from tp nodes %d and %d", f.loadVictim, tp.vtpn)
		}
	}

	v := tp.vtpn
	clean, skipped := 0, false
	var victim *entryNode
	for i := tp.tail; ; {
		if f.cfg.CleanFirst {
			j := f.eslab.prevClean(i)
			if j != i && j >= 0 && clean > 0 {
				skipped = true
			}
			if i = j; i < 0 {
				i = tp.tail
			}
		}
		victim = &f.eslab.nodes[i]
		env.NoteReplacement(victim.dirty)
		if victim.dirty {
			break
		}
		next := victim.prev
		f.removeEntry(tp, victim)
		clean++
		if skipped {
			r.cov.splits++
			skipped = false
		}
		switch {
		case f.tpAt(v) != tp:
			r.cov.drops++
			return true, nil
		case f.used <= floor:
			r.cov.floorEnds++
			return true, nil
		case f.pages.Back() != &tp.node:
			r.cov.avgEnds++
			return true, nil
		}
		if f.cfg.CleanFirst {
			i = next
		} else {
			i = tp.tail
		}
	}
	if clean > 0 {
		r.cov.dirtyEnds++
	}

	updates := f.evictScratch[:0]
	cleaned := 0
	if f.cfg.BatchUpdate {
		updates, cleaned = f.appendDirty(tp, victim, updates)
	} else {
		updates = append(updates, ftl.EntryUpdate{Off: int(victim.off), PPN: victim.ppn})
	}
	f.evictScratch = updates
	f.removeEntry(tp, victim)
	env.NoteBatchWriteback(cleaned)
	if err := env.WriteTP(v, updates, false); err != nil {
		return false, err
	}
	return true, nil
}

// Update is FTL.Update making room with the reference evictRun.
func (r refFTL) Update(env ftl.Env, lpn ftl.LPN, ppn flash.PPN) error {
	f := r.FTL
	v := ftl.VTPNOf(lpn, f.ePerTP)
	off := int32(ftl.OffOf(lpn, f.ePerTP))
	if tp := f.tpAt(v); tp != nil {
		if e := f.entryAt(tp, off); e != nil {
			e.ppn = ppn
			tp.markDirty(e)
			f.touch(tp, e)
			return nil
		}
	}
	f.reserveEntries(env)
	for {
		floor := f.cfg.CacheBytes - f.entryBytes
		if f.tpAt(v) == nil {
			floor -= f.nodeBytes
		}
		if f.used <= floor {
			break
		}
		evicted, err := r.evictRun(env, floor)
		if err != nil {
			return err
		}
		if !evicted {
			return fmt.Errorf("tpftl: budget %d cannot hold one entry", f.cfg.CacheBytes)
		}
	}
	tp := f.tpAt(v)
	if tp == nil {
		tp = f.newTPNode(v)
	}
	e := f.addEntry(tp, off, ppn, true)
	f.touch(tp, e)
	return nil
}

// sameCache reports the first difference between two caches: the page-level
// order, each node's entry list (offset, slab position, PPN, dirty bit and
// stamp, MRU to LRU), offset table, dirty bitmap, counts and stamp sum, and
// the cache-wide counters.
func sameCache(a, b *FTL) error {
	if a.used != b.used || a.entries != b.entries || a.stamp != b.stamp ||
		a.counter != b.counter || a.selectiveOn != b.selectiveOn {
		return fmt.Errorf("used %d/%d, entries %d/%d, stamp %d/%d, counter %d/%d, selective %v/%v",
			a.used, b.used, a.entries, b.entries, a.stamp, b.stamp, a.counter, b.counter, a.selectiveOn, b.selectiveOn)
	}
	na, nb := a.pages.Front(), b.pages.Front()
	for ; na != nil && nb != nil; na, nb = na.Next(), nb.Next() {
		ta, tb := na.Value, nb.Value
		if ta.vtpn != tb.vtpn {
			return fmt.Errorf("page list holds node %d where the reference holds %d", ta.vtpn, tb.vtpn)
		}
		if ta.count != tb.count || ta.dirty != tb.dirty || ta.stampSum != tb.stampSum {
			return fmt.Errorf("node %d: count %d/%d, dirty %d/%d, stamp sum %d/%d",
				ta.vtpn, ta.count, tb.count, ta.dirty, tb.dirty, ta.stampSum, tb.stampSum)
		}
		ea, eb := entriesOf(a, ta), entriesOf(b, tb)
		if !slices.EqualFunc(ea, eb, func(x, y *entryNode) bool { return *x == *y }) {
			return fmt.Errorf("node %d: entry list %v, reference %v", ta.vtpn, derefs(ea), derefs(eb))
		}
		if !slices.Equal(ta.byOff, tb.byOff) {
			return fmt.Errorf("node %d: offset table differs", ta.vtpn)
		}
		if !slices.Equal(ta.dirtyBits, tb.dirtyBits) {
			return fmt.Errorf("node %d: dirty bitmap %x, reference %x", ta.vtpn, ta.dirtyBits, tb.dirtyBits)
		}
	}
	if na != nil || nb != nil {
		return fmt.Errorf("page lists of %d and %d nodes", a.pages.Len(), b.pages.Len())
	}
	return nil
}

func derefs(es []*entryNode) []entryNode {
	out := make([]entryNode, len(es))
	for i, e := range es {
		out[i] = *e
	}
	return out
}

// oracleRequests is a seeded sequence of random reads, writes, trims and
// flushes of 1 to 16 pages, broken by runs of sequential 8-page reads that
// drop the small TP nodes the random phase leaves and switch selective
// prefetching on.
func oracleRequests(seed int64, pages int64, n int) []trace.Request {
	const pageSize = 512
	rng := rand.New(rand.NewSource(seed))
	var reqs []trace.Request
	cursor := int64(0)
	for arrival := int64(0); len(reqs) < n; arrival += 50_000 {
		if rng.Intn(40) == 0 {
			for i := 0; i < 12; i++ {
				reqs = append(reqs, trace.Request{Arrival: arrival, Offset: cursor * pageSize, Length: 8 * pageSize, Op: trace.OpRead})
				cursor = (cursor + 8) % (pages - 8)
				arrival += 50_000
			}
			continue
		}
		page := rng.Int63n(pages)
		span := min(1+rng.Int63n(16), pages-page)
		req := trace.Request{Arrival: arrival, Offset: page * pageSize, Length: span * pageSize}
		switch k := rng.Intn(100); {
		case k < 50:
			req.Op = trace.OpRead
		case k < 90:
			req.Op = trace.OpWrite
		case k < 97:
			req.Op = trace.OpTrim
		default:
			req.Op, req.Offset, req.Length = trace.OpFlush, 0, 0
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// TestEvictAndInstallRunsMatchOneAtATime: for every variant under both
// orderings, on budgets from a handful of entries to a few hundred, the runs
// leave the cache, and the device's Metrics, exactly as the reference leaves
// them after every request. The reference's coverage counters make sure the
// sequences reached every end of a run.
func TestEvictAndInstallRunsMatchOneAtATime(t *testing.T) {
	const pages = 2048 // 1 MiB of 512-byte pages: 64 entries a translation page, 32 translation pages
	reqsPerCase := 1500
	if testing.Short() {
		reqsPerCase = 400
	}
	var cov runCoverage
	for _, budget := range []int64{56, 120, 300, 1100} {
		for _, hot := range []Hotness{HotnessLRU, HotnessAvg} {
			for mask := 0; mask < 16; mask++ {
				cfg := Config{
					CacheBytes:        budget,
					RequestPrefetch:   mask&8 != 0,
					SelectivePrefetch: mask&4 != 0,
					BatchUpdate:       mask&2 != 0,
					CleanFirst:        mask&1 != 0,
					CompressEntries:   true,
					Hotness:           hot,
				}
				name := fmt.Sprintf("%d/%s/%d", budget, cfg.VariantName(), hot)
				dcfg := ftl.Config{
					LogicalBytes:  pages * 512,
					PageSize:      512,
					PagesPerBlock: 32,
					OverProvision: 0.15,
					CacheBytes:    budget,
				}
				tr, ref := New(cfg), refFTL{New(cfg), &cov}
				d, err := ftl.NewDevice(dcfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				dr, err := ftl.NewDevice(dcfg, ref)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Format(); err != nil {
					t.Fatal(err)
				}
				if err := dr.Format(); err != nil {
					t.Fatal(err)
				}
				for i, req := range oracleRequests(budget+int64(mask), pages, reqsPerCase) {
					_, err := d.Serve(req)
					_, errRef := dr.Serve(req)
					if err != nil || errRef != nil {
						t.Fatalf("%s: request %d (%+v): %v; reference: %v", name, i, req, err, errRef)
					}
					if err := sameCache(tr, ref.FTL); err != nil {
						t.Fatalf("%s: after request %d (%+v): %v", name, i, req, err)
					}
					if m, mr := d.Metrics(), dr.Metrics(); m != mr {
						t.Fatalf("%s: after request %d: metrics\n%+v\nreference\n%+v", name, i, m, mr)
					}
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
	t.Logf("reference coverage: %+v", cov)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"node dropped", cov.drops}, {"coldest place lost", cov.avgEnds}, {"floor reached", cov.floorEnds},
		{"dirty victim after clean ones", cov.dirtyEnds}, {"two segments", cov.splits},
		{"rule-2 shrink", cov.shrinks}, {"prefetch installed", cov.prefetches},
	} {
		if c.n == 0 {
			t.Errorf("no run reached %q: the sequences no longer cover it", c.what)
		}
	}
}
