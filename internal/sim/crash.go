package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/trace"
	"repro/internal/workload"
)

// CrashOptions configures a crash-recovery property run: the same seeded
// workload is replayed repeatedly, power is cut at a different chip-op index
// each time, and the post-crash OOB scan (Device.RecoverMapping) is checked
// against what the device acknowledged before the lights went out.
type CrashOptions struct {
	// Scheme selects the FTL policy under test.
	Scheme Scheme
	// TPFTL optionally overrides the TPFTL configuration (see Options).
	TPFTL *core.Config

	// Profile, AddressSpace, Requests, Seed describe the workload exactly
	// as in Options.
	Profile      workload.Profile
	AddressSpace int64
	Requests     int
	Seed         int64

	// Trace, when non-empty, replays these requests instead of generating
	// a workload from Profile/Requests/Seed. AddressSpace must be set.
	// Differential and fuzz tests use this to drive explicit trim/flush/
	// write interleavings through every cut point.
	Trace []trace.Request

	// CacheBytes is the mapping-cache budget (0: paper convention).
	CacheBytes int64
	// Precondition ages the device before arming faults (see Options).
	Precondition float64
	// Channels and Dies select the parallel backend's geometry (see
	// Options). Cut points are op indexes, so crash recovery is verified at
	// the same logical progress whatever the geometry.
	Channels int
	Dies     int

	// Cuts is the number of random power-cut points to test (default 1).
	// Cut indexes are drawn uniformly from [1, total chip ops] of an
	// uninterrupted baseline run of the same workload.
	Cuts int
	// CutAtOp, when > 0, tests exactly this one op index instead.
	CutAtOp int64
	// FaultProb additionally makes every read/program/erase fail
	// transiently with this probability during the cut runs, exercising
	// the device's retry path on the way to the crash.
	FaultProb float64
}

// CutResult is the verified outcome of one power-cut point.
type CutResult struct {
	// CutOp is the 1-based chip-op index at which power was cut.
	CutOp int64
	// ServedRequests counts the requests fully acknowledged before the cut.
	ServedRequests int
	// AckedPages counts the distinct logical pages whose acknowledged
	// writes were verified durable after recovery.
	AckedPages int
	// ScannedPages is the recovery scan cost (one OOB read per programmed
	// page).
	ScannedPages int64
	// Injected counts transient faults injected before the cut (FaultProb).
	Injected int64
	// TrimmedPages counts the logical pages whose acknowledged discards
	// (not overwritten since) were verified not to resurrect after
	// recovery.
	TrimmedPages int
	// FlushBarriers counts the acknowledged flush requests whose
	// drained-cache contract was verified at the ack instant.
	FlushBarriers int
}

// CrashReport aggregates a RunCrash execution.
type CrashReport struct {
	Scheme Scheme
	// TotalOps is the chip-op count of the uninterrupted baseline run; cut
	// points are drawn from [1, TotalOps].
	TotalOps int64
	Cuts     []CutResult
}

// RunCrash runs the crash-consistency property: for every cut point it
// verifies that (a) the mapping rebuilt by the OOB scan equals the device's
// live mapping at the instant of the cut — the device must never expose
// state that would not survive a crash — (b) every write acknowledged
// before the cut is recovered with its logical tag and a program sequence at
// least as fresh as the acknowledged one, (c) every logical page whose
// discard was acknowledged before the cut (and not rewritten since) stays
// unmapped after recovery — a TRIM must never resurrect old data — and
// (d) every acknowledged flush barrier left the mapping cache with no dirty
// entry at its ack instant (unless a concurrent GC legitimately re-dirtied
// entries mid-flush). Any divergence is returned as an error naming the cut
// point, which reproduces deterministically from (options, cut index).
func RunCrash(o CrashOptions) (*CrashReport, error) {
	if o.Cuts <= 0 {
		o.Cuts = 1
	}

	space := o.Profile.AddressSpace
	if o.AddressSpace != 0 {
		space = o.AddressSpace
	}
	if space <= 0 {
		return nil, fmt.Errorf("sim: no address space configured")
	}
	reqs := o.Trace
	if len(reqs) == 0 {
		profile := o.Profile.Scale(space)
		var err error
		reqs, err = workload.Generate(profile, o.Requests, o.Seed)
		if err != nil {
			return nil, err
		}
	}

	// Baseline: run the workload uninterrupted under an empty fault plan,
	// which injects nothing but counts chip ops, sizing the cut space.
	dev, _, err := o.buildDevice(space)
	if err != nil {
		return nil, err
	}
	dev.Chip().SetFaultPlan(&flash.FaultPlan{})
	for i := range reqs {
		if _, err := dev.Serve(reqs[i]); err != nil {
			return nil, fmt.Errorf("sim: %s baseline request %d: %w", o.Scheme, i, err)
		}
	}
	rep := &CrashReport{Scheme: o.Scheme, TotalOps: dev.Chip().OpCount()}
	if rep.TotalOps == 0 {
		return nil, fmt.Errorf("sim: %s baseline performed no chip ops", o.Scheme)
	}

	cuts := make([]int64, 0, o.Cuts)
	if o.CutAtOp > 0 {
		cuts = append(cuts, o.CutAtOp)
	} else {
		rng := rand.New(rand.NewSource(o.Seed*6364136223846793005 + 1442695040888963407))
		for i := 0; i < o.Cuts; i++ {
			cuts = append(cuts, 1+rng.Int63n(rep.TotalOps))
		}
	}

	for _, cut := range cuts {
		res, err := o.runOneCut(space, reqs, cut)
		if err != nil {
			return nil, fmt.Errorf("sim: %s cut at op %d: %w", o.Scheme, cut, err)
		}
		rep.Cuts = append(rep.Cuts, *res)
	}
	return rep, nil
}

// buildDevice constructs, formats and optionally preconditions a fresh
// device for one run. Every call produces bit-identical state: faults are
// armed only afterwards, so cut indexes land in the measured workload.
func (o CrashOptions) buildDevice(space int64) (*ftl.Device, ftl.Translator, error) {
	cfg := ftl.DefaultConfig(space)
	if o.CacheBytes != 0 {
		cfg.CacheBytes = o.CacheBytes
	}
	cfg.Channels, cfg.Dies = o.Channels, o.Dies
	pages := cfg.LogicalPages()
	return newDevice(o.Scheme, cfg, o.TPFTL, int(o.Precondition*float64(pages)), pages, o.Seed+1)
}

// runOneCut replays the workload with power cut at the given op index and
// verifies recovery.
func (o CrashOptions) runOneCut(space int64, reqs []trace.Request, cut int64) (*CutResult, error) {
	dev, tr, err := o.buildDevice(space)
	if err != nil {
		return nil, err
	}
	dev.Chip().SetFaultPlan(&flash.FaultPlan{
		Seed:        o.Seed + cut,
		CutAtOp:     cut,
		ReadProb:    o.FaultProb,
		ProgramProb: o.FaultProb,
		EraseProb:   o.FaultProb,
	})

	// Serve until the cut, recording the acknowledged durability point of
	// every completed write (the program sequence number its pages carry
	// the moment Serve returns success) and the set of pages whose discard
	// was acknowledged and not rewritten since.
	res := &CutResult{CutOp: cut}
	acked := make(map[ftl.LPN]int64)
	trimmed := make(map[ftl.LPN]struct{})
	pageSize := dev.Config().PageSize
	for i := range reqs {
		var gcBefore int64
		if reqs[i].Op == trace.OpFlush {
			m := dev.Metrics()
			gcBefore = m.GCDataCollections + m.GCTransCollections
		}
		if reqs[i].Op.IsWrite() {
			// A write ISSUED to a trimmed page voids the resurrection check
			// even if the cut lands mid-request: its pages may already be
			// programmed with fresh sequence numbers, and recovery is then
			// allowed to surface the new (unacknowledged) data. Old pre-trim
			// data still cannot reappear — its sequence predates the trim's
			// translation-page rewrite, so the demotion rule masks it.
			first, last := reqs[i].Pages(pageSize)
			for lpn := first; lpn <= last; lpn++ {
				delete(trimmed, ftl.LPN(lpn))
			}
		}
		if _, err := dev.Serve(reqs[i]); err != nil {
			if errors.Is(err, flash.ErrPowerCut) {
				break
			}
			return nil, fmt.Errorf("request %d died before the cut: %w", i, err)
		}
		res.ServedRequests++
		switch reqs[i].Op {
		case trace.OpRead:
			// Reads claim no durability; nothing to track.
		case trace.OpWrite, trace.OpWriteFUA:
			first, last := reqs[i].Pages(pageSize)
			for lpn := first; lpn <= last; lpn++ {
				ppn := dev.Mapped(ftl.LPN(lpn))
				acked[ftl.LPN(lpn)] = dev.Chip().MetaOf(ppn).Seq
				delete(trimmed, ftl.LPN(lpn))
			}
		case trace.OpTrim:
			// Inward page rounding, mirroring the device: only pages fully
			// inside the range are discarded. An acknowledged discard voids
			// any earlier write's durability claim on those pages.
			first := (reqs[i].Offset + int64(pageSize) - 1) / int64(pageSize)
			last := reqs[i].End()/int64(pageSize) - 1
			for lpn := first; lpn <= last; lpn++ {
				trimmed[ftl.LPN(lpn)] = struct{}{}
				delete(acked, ftl.LPN(lpn))
			}
		case trace.OpFlush:
			// (d) At the ack instant every dirty cached entry has been
			// written back — unless a GC run inside the flush legitimately
			// re-dirtied entries with migrated locations.
			m := dev.Metrics()
			if m.GCDataCollections+m.GCTransCollections == gcBefore {
				if dirty := dirtySetOf(tr); len(dirty) > 0 {
					return nil, fmt.Errorf("flush request %d acked with %d dirty cached entries", i, len(dirty))
				}
			}
			res.FlushBarriers++
		}
	}
	res.Injected = dev.Chip().FaultStats().Injected()

	// Power is out; rebuild the mapping from nothing but OOB metadata.
	rs, err := dev.RecoverMapping()
	if err != nil {
		return nil, err
	}
	res.ScannedPages = rs.ScannedPages

	// (a) Exact match against the live state at the cut instant: the
	// device changes its mapping and GTD only after the corresponding chip
	// op succeeded, and settles what an op cut short already moved, so
	// whatever it exposes must be reconstructible.
	for lpn := int64(0); lpn < dev.NumLPNs(); lpn++ {
		if got, live := rs.Mapping[lpn], dev.Mapped(ftl.LPN(lpn)); got != live {
			return nil, fmt.Errorf("recovered lpn %d as ppn %d, live state says %d", lpn, got, live)
		}
	}
	for v := 0; v < dev.NumTPs(); v++ {
		if got, live := rs.GTD[v], dev.GTDEntry(ftl.VTPN(v)); got != live {
			return nil, fmt.Errorf("recovered vtpn %d as ppn %d, live GTD says %d", v, got, live)
		}
	}

	// (b) Acknowledged durability: every write completed before the cut
	// must come back with its tag and an equal-or-fresher sequence (GC may
	// legitimately have moved it to a newer physical page).
	//ftl:orderinsensitive read-only durability check; any violated LPN is a valid witness
	for lpn, seq := range acked {
		ppn := rs.Mapping[lpn]
		if ppn == flash.InvalidPPN {
			return nil, fmt.Errorf("acknowledged write to lpn %d lost in recovery", lpn)
		}
		m := dev.Chip().MetaOf(ppn)
		if m.Kind != flash.KindData || m.Tag != int64(lpn) {
			return nil, fmt.Errorf("lpn %d recovered to ppn %d tagged %v/%d", lpn, ppn, m.Kind, m.Tag)
		}
		if m.Seq < seq {
			return nil, fmt.Errorf("lpn %d recovered with seq %d older than acknowledged %d", lpn, m.Seq, seq)
		}
	}
	res.AckedPages = len(acked)

	// (c) Discard durability: a page whose TRIM was acknowledged (and that
	// was not rewritten) must stay unmapped after recovery — the on-flash
	// state must never resurrect the pre-trim data.
	for lpn := range trimmed {
		if rs.Mapping[lpn] != flash.InvalidPPN {
			return nil, fmt.Errorf("trimmed lpn %d resurrected as ppn %d after recovery", lpn, rs.Mapping[lpn])
		}
	}
	res.TrimmedPages = len(trimmed)
	return res, nil
}
