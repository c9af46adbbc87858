package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/ftl/blockftl"
	"repro/internal/ftl/fast"
	"repro/internal/ftl/hybrid"
	"repro/internal/trace"
)

// refFTL is the reference model every device is run against: per logical
// page, whether a host read returns written data. It has no cache, no GC and
// no timing. A write maps its pages; a trim unmaps the pages it wholly covers
// on a device that honours trims (the block-mapped devices ignore them, as
// the specification allows); reads and flushes change nothing.
type refFTL struct {
	pageSize int64
	trims    bool
	mapped   []bool
}

func newRefFTL(pages, pageSize int64, formatted, trims bool) *refFTL {
	m := &refFTL{pageSize: pageSize, trims: trims, mapped: make([]bool, pages)}
	for i := range m.mapped {
		m.mapped[i] = formatted
	}
	return m
}

// apply records what a served request does to the host-visible contents.
func (m *refFTL) apply(r trace.Request) {
	switch r.Op {
	case trace.OpWrite, trace.OpWriteFUA:
		first, last := r.Pages(int(m.pageSize))
		for lpn := first; lpn <= last; lpn++ {
			m.mapped[lpn] = true
		}
	case trace.OpTrim:
		if !m.trims {
			return
		}
		for lpn := (r.Offset + m.pageSize - 1) / m.pageSize; lpn < r.End()/m.pageSize; lpn++ {
			m.mapped[lpn] = false
		}
	case trace.OpRead, trace.OpFlush:
	}
}

// count returns the number of mapped pages in [first, last].
func (m *refFTL) count(first, last int64) int64 {
	n := int64(0)
	for lpn := first; lpn <= last; lpn++ {
		if m.mapped[lpn] {
			n++
		}
	}
	return n
}

// readSpy wraps a translator and records its answer for every page of a
// read request: the page the device then reads from flash, that is, what
// the host gets back. Every optional hook the device looks for is forwarded,
// so the device behaves exactly as over the bare translator.
type readSpy struct {
	ftl.Translator
	reading bool
	got     []flash.PPN
}

func (s *readSpy) BeginRequest(first, last ftl.LPN, write bool) {
	s.reading, s.got = !write, s.got[:0]
	s.Translator.BeginRequest(first, last, write)
}

func (s *readSpy) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	ppn, err := s.Translator.Translate(env, lpn)
	if s.reading {
		s.got = append(s.got, ppn)
	}
	return ppn, err
}

func (s *readSpy) SetGeometry(entriesPerTP int) {
	if g, ok := s.Translator.(ftl.GeometryAware); ok {
		g.SetGeometry(entriesPerTP)
	}
}

func (s *readSpy) Warm(persisted func(ftl.LPN) flash.PPN) {
	if w, ok := s.Translator.(ftl.Warmer); ok {
		w.Warm(persisted)
	}
}

func (s *readSpy) DirtyCached() []ftl.DirtyEntry {
	if t, ok := s.Translator.(ftl.DirtyLister); ok {
		return t.DirtyCached()
	}
	return nil
}

func (s *readSpy) CheckInvariants() error {
	if t, ok := s.Translator.(interface{ CheckInvariants() error }); ok {
		return t.CheckInvariants()
	}
	return nil
}

func (s *readSpy) AppendDirty(v ftl.VTPN, ups []ftl.EntryUpdate) []ftl.EntryUpdate {
	if a, ok := s.Translator.(ftl.DirtyAppender); ok {
		return a.AppendDirty(v, ups)
	}
	return ups
}

func (s *readSpy) EndGCBatch(env ftl.Env) error {
	if e, ok := s.Translator.(ftl.GCBatchEnder); ok {
		return e.EndGCBatch(env)
	}
	return nil
}

// oracleRequests decodes a request sequence from data, four bytes a request
// (op, two bytes of page, length), over a device of the given size. Offsets
// and lengths are page multiples, except that a trim may start and end
// mid-page, which the device rounds inward.
func oracleRequests(data []byte, pages, pageSize int64) []trace.Request {
	var reqs []trace.Request
	for i := 0; i+3 < len(data) && len(reqs) < 400; i += 4 {
		lpn := (int64(data[i+1])<<8 | int64(data[i+2])) % pages
		n := min(int64(data[i+3]%8)+1, pages-lpn)
		r := trace.Request{Arrival: int64(len(reqs)) * 10_000, Offset: lpn * pageSize, Length: n * pageSize}
		switch data[i] % 8 {
		case 0, 1, 2:
			r.Op = trace.OpWrite
		case 3:
			r.Op = trace.OpWriteFUA
		case 4, 5:
			r.Op = trace.OpRead
		case 6:
			r.Op = trace.OpTrim
			if cut := int64(data[i+3]>>3) * 16; cut < r.Length {
				r.Offset, r.Length = r.Offset+cut, r.Length-cut
			}
		case 7:
			r.Op, r.Offset, r.Length = trace.OpFlush, 0, 0
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// oracleConfig is a device small enough that a few hundred requests keep it
// in GC: 2 048 half-KiB pages in 16 translation pages, with a 1 KiB cache.
var oracleConfig = ftl.Config{
	LogicalBytes:  1 << 20,
	PageSize:      512,
	PagesPerBlock: 32,
	OverProvision: 0.15,
	CacheBytes:    1 << 10,
}

// runOracle replays reqs on every demand-based scheme and every
// block-mapped device in lock-step with the reference model. Each read must
// return what the model says, and at every flush and at the end so must a
// read of the whole space, which must also be what a crash-recovery scan of
// the out-of-band tags rebuilds. It returns the demand-based devices' data
// collections and trimmed pages, so a caller can tell the run was not vacuous.
func runOracle(t *testing.T, reqs []trace.Request) (collections, trimmed int64) {
	t.Helper()
	cfg := oracleConfig
	pages, ps := cfg.LogicalPages(), int64(cfg.PageSize)
	sweep := trace.Request{Op: trace.OpRead, Length: cfg.LogicalBytes}
	for _, s := range []Scheme{SchemeTPFTL, SchemeDFTL, SchemeSFTL, SchemeCDFTL, SchemeZFTL, SchemeOptimal} {
		tr, err := NewTranslator(s, cfg.CacheBytes, pages, nil)
		if err != nil {
			t.Fatal(err)
		}
		spy := &readSpy{Translator: tr}
		d, err := ftl.NewDevice(cfg, spy)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Format(); err != nil {
			t.Fatal(err)
		}
		spy.Warm(d.Persisted)
		model := newRefFTL(pages, ps, true, true)
		check := func(i int, r trace.Request, full bool) {
			first, _ := r.Pages(int(ps))
			for k, ppn := range spy.got {
				lpn := first + int64(k)
				if err := readMatches(d.Chip(), lpn, ppn, model.mapped[lpn]); err != nil {
					t.Fatalf("%s: request %d: %v", s, i, err)
				}
			}
			if !full {
				return
			}
			if int64(len(spy.got)) != pages {
				t.Fatalf("%s: request %d: sweep translated %d of %d pages", s, i, len(spy.got), pages)
			}
			rs, err := d.RecoverMapping()
			if err != nil {
				t.Fatalf("%s: request %d: %v", s, i, err)
			}
			for lpn, ppn := range spy.got {
				if rs.Mapping[lpn] != ppn {
					t.Fatalf("%s: request %d: lpn %d reads ppn %d, recovery rebuilds %d", s, i, lpn, ppn, rs.Mapping[lpn])
				}
			}
			if n, want := validDataPages(d.Chip()), model.count(0, pages-1); n != want {
				t.Fatalf("%s: request %d: %d valid data pages for %d mapped pages", s, i, n, want)
			}
		}
		for i, r := range reqs {
			if _, err := d.Serve(r); err != nil {
				t.Fatalf("%s: request %d (%v): %v", s, i, r, err)
			}
			model.apply(r)
			switch r.Op {
			case trace.OpRead:
				check(i, r, false)
			case trace.OpFlush:
				sweep.Arrival = r.Arrival
				if _, err := d.Serve(sweep); err != nil {
					t.Fatalf("%s: sweep after request %d: %v", s, i, err)
				}
				check(i, sweep, true)
			case trace.OpWrite, trace.OpWriteFUA, trace.OpTrim:
			}
		}
		sweep.Arrival = int64(len(reqs)) * 10_000
		if _, err := d.Serve(sweep); err != nil {
			t.Fatalf("%s: final sweep: %v", s, err)
		}
		check(len(reqs), sweep, true)
		m := d.Metrics()
		collections += m.GCDataCollections
		trimmed += m.TrimmedPages
	}

	devCfg := ftl.Config{LogicalBytes: cfg.LogicalBytes, PageSize: cfg.PageSize, PagesPerBlock: cfg.PagesPerBlock, OverProvision: cfg.OverProvision}
	type blockDevice interface {
		Serve(trace.Request) (time.Duration, error)
		Chip() *flash.Chip
		CheckConsistency() error
	}
	for _, dv := range []struct {
		name  string
		build func() (blockDevice, error)
	}{
		{"block", func() (blockDevice, error) { return blockftl.New(devCfg) }},
		{"bast", func() (blockDevice, error) { return hybrid.New(hybrid.Config{Device: devCfg}) }},
		{"fast", func() (blockDevice, error) { return fast.New(fast.Config{Device: devCfg}) }},
	} {
		d, err := dv.build()
		if err != nil {
			t.Fatal(err)
		}
		model := newRefFTL(pages, ps, false, false)
		// A read of a mapped page costs exactly one flash read and of an
		// unmapped one none; what was read is the one valid page tagged
		// with the LPN, which the sweep's census proves unique.
		read := func(i int, r trace.Request) {
			before := d.Chip().Stats().Reads
			if _, err := d.Serve(r); err != nil {
				t.Fatalf("%s: request %d: %v", dv.name, i, err)
			}
			first, last := r.Pages(int(ps))
			if got, want := d.Chip().Stats().Reads-before, model.count(first, last); got != want {
				t.Fatalf("%s: request %d: %d flash reads for %d mapped pages", dv.name, i, got, want)
			}
		}
		census := func(i int) {
			if err := d.CheckConsistency(); err != nil {
				t.Fatalf("%s: request %d: %v", dv.name, i, err)
			}
			tagged := make([]int, pages)
			chip := d.Chip()
			for p := flash.PPN(0); int64(p) < chip.Config().TotalPages(); p++ {
				if chip.State(p) == flash.PageValid {
					tagged[chip.MetaOf(p).Tag]++
				}
			}
			for lpn, n := range tagged {
				if want := model.mapped[lpn]; n > 1 || (n == 1) != want {
					t.Fatalf("%s: request %d: lpn %d has %d valid pages, mapped %v", dv.name, i, lpn, n, want)
				}
			}
		}
		for i, r := range reqs {
			if r.Op == trace.OpRead {
				read(i, r)
				continue
			}
			if _, err := d.Serve(r); err != nil {
				t.Fatalf("%s: request %d (%v): %v", dv.name, i, r, err)
			}
			model.apply(r)
			if r.Op == trace.OpFlush {
				census(i)
			}
		}
		sweep.Arrival = int64(len(reqs)) * 10_000
		read(len(reqs), sweep)
		census(len(reqs))
	}
	return collections, trimmed
}

// readMatches checks one page of a host read against the model: an
// unmapped page reads as no page at all, a mapped one as the valid data page
// tagged with its LPN.
func readMatches(chip *flash.Chip, lpn int64, ppn flash.PPN, mapped bool) error {
	switch {
	case !mapped && ppn.Valid():
		return fmt.Errorf("lpn %d is unmapped but reads ppn %d", lpn, ppn)
	case mapped && !ppn.Valid():
		return fmt.Errorf("lpn %d is mapped but reads as unmapped", lpn)
	case !mapped:
		return nil
	}
	if st := chip.State(ppn); st != flash.PageValid {
		return fmt.Errorf("lpn %d reads ppn %d in state %v", lpn, ppn, st)
	}
	if m := chip.MetaOf(ppn); m.Kind != flash.KindData || m.Tag != lpn {
		return fmt.Errorf("lpn %d reads ppn %d holding %v of lpn %d", lpn, ppn, m.Kind, m.Tag)
	}
	return nil
}

// validDataPages counts the chip's valid data pages.
func validDataPages(chip *flash.Chip) int64 {
	n := int64(0)
	for p := flash.PPN(0); int64(p) < chip.Config().TotalPages(); p++ {
		if chip.State(p) == flash.PageValid && chip.MetaOf(p).Kind == flash.KindData {
			n++
		}
	}
	return n
}

// TestReferenceModel runs random read/write/FUA/trim/flush sequences through
// every device in lock-step with the reference model.
func TestReferenceModel(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		data := make([]byte, 4*400)
		rand.New(rand.NewSource(seed)).Read(data)
		collections, trimmed := runOracle(t, oracleRequests(data, oracleConfig.LogicalPages(), int64(oracleConfig.PageSize)))
		if collections == 0 || trimmed == 0 {
			t.Fatalf("seed %d: %d collections and %d trimmed pages: the sequence exercised neither GC nor trims", seed, collections, trimmed)
		}
	}
}

// FuzzReferenceModel lets the fuzzer choose the sequence.
func FuzzReferenceModel(f *testing.F) {
	f.Add([]byte{0, 0, 10, 7, 6, 0, 10, 0x3b, 7, 0, 0, 0, 4, 0, 8, 7})
	f.Add([]byte{3, 1, 0, 7, 0, 1, 0, 7, 6, 1, 0, 7, 5, 1, 0, 7, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runOracle(t, oracleRequests(data, oracleConfig.LogicalPages(), int64(oracleConfig.PageSize)))
	})
}
