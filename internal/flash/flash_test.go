package flash

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func testChip(t *testing.T, blocks int) *Chip {
	t.Helper()
	cfg := DefaultConfig(blocks)
	cfg.PagesPerBlock = 4 // small blocks keep tests readable
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(c *Config) {}, true},
		{"zero page size", func(c *Config) { c.PageSize = 0 }, false},
		{"negative pages per block", func(c *Config) { c.PagesPerBlock = -1 }, false},
		{"zero blocks", func(c *Config) { c.NumBlocks = 0 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(8)
			tc.mut(&cfg)
			err := cfg.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() error = %v, want ok=%v", err, tc.ok)
			}
			if _, err := New(cfg); (err == nil) != tc.ok {
				t.Fatalf("New() error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestConfigValidatePageLimit: a PPN is 4 bytes, so a geometry of more than
// MaxPages physical pages is refused — with the page count and the limit in
// the message — instead of wrapping. Only Validate runs: the legal boundary
// geometries are far too big to construct.
func TestConfigValidatePageLimit(t *testing.T) {
	for _, tc := range []struct {
		blocks, ppb int
		pages       string // in the error; "" means legal
	}{
		{math.MaxInt32, 1, ""},
		{math.MaxInt32 + 1, 1, "2147483648 physical pages"},
		{1, math.MaxInt32, ""},
		{1, math.MaxInt32 + 1, "2147483648 physical pages"},
		{1<<25 - 1, 64, ""}, // one block short of 8 TiB at 4 KiB pages
		{1 << 25, 64, "2147483648 physical pages"},
		{715827882, 3, ""}, // 3 × 715827882 = MaxInt32 − 1
		{715827883, 3, "2147483649 physical pages"},
		{1 << 62, 4, "physical pages"}, // the product wraps int64 to 0
	} {
		cfg := DefaultConfig(tc.blocks)
		cfg.PagesPerBlock = tc.ppb
		err := cfg.Validate()
		if tc.pages == "" {
			if err != nil {
				t.Errorf("%d × %d pages: %v, want legal", tc.blocks, tc.ppb, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.pages) || !strings.Contains(err.Error(), "2147483647") {
			t.Errorf("%d × %d pages: error %v, want %q and the limit 2147483647 named", tc.blocks, tc.ppb, err, tc.pages)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%d × %d pages: New built the chip", tc.blocks, tc.ppb)
		}
	}
}

// TestProgramRejectsWideTag: the out-of-band tag field is 32 bits; a tag
// beyond it is an illegal program, not a silently truncated one.
func TestProgramRejectsWideTag(t *testing.T) {
	c := testChip(t, 2)
	for _, tag := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1, 1 << 40} {
		_, err := c.Program(0, Meta{Kind: KindData, Tag: tag})
		var oe *OpError
		if !errors.As(err, &oe) || oe.Op != "program" {
			t.Fatalf("tag %d: err = %v, want a program OpError", tag, err)
		}
		if c.State(0) != PageFree || c.Stats().Programs != 0 {
			t.Fatalf("tag %d: rejected program changed the chip", tag)
		}
	}
	for i, tag := range []int64{math.MaxInt32, math.MinInt32} {
		p := PPN(i)
		if _, err := c.Program(p, Meta{Kind: KindData, Tag: tag}); err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		if got := c.MetaOf(p).Tag; got != tag {
			t.Fatalf("tag %d read back as %d", tag, got)
		}
	}
}

// TestMetaRoundTrip: MetaOf returns exactly the Kind, Tag and Seq Program
// stored (kind in the packed byte, tag and block-relative Seq in the OOB
// record), Invalidate keeps them, Erase resets them, and CheckInvariants
// rejects every packed byte and leftover no operation can produce.
func TestMetaRoundTrip(t *testing.T) {
	c := testChip(t, 2) // 4 pages per block
	const base = 1 << 40
	metas := []Meta{
		{Kind: KindData, Tag: 0, Seq: base},
		{Kind: KindTranslation, Tag: 7, Seq: base + 1},
		{Kind: KindData, Tag: math.MaxInt32, Seq: base + math.MaxUint32},
		{Kind: KindTranslation, Tag: 0, Seq: base},
	}
	for i, m := range metas {
		if _, err := c.Program(PPN(i), m); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range metas {
		if got := c.MetaOf(PPN(i)); got != m {
			t.Fatalf("MetaOf(%d) = %+v, want %+v", i, got, m)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Page 1 is programmed, page 4 (block 1) is free.
	for _, bad := range []struct {
		name string
		page PPN
		cell cell
		oob  oob
	}{
		{"programmed page with KindNone", 1, makeCell(PageValid, KindNone), c.oob[1]},
		{"state 3", 1, cell(3) | cell(KindData)<<cellKindShift, c.oob[1]},
		{"kind 3", 1, makeCell(PageValid, 3), c.oob[1]},
		{"high bits", 1, makeCell(PageValid, KindData) | 0x40, c.oob[1]},
		{"free page with a kind", 4, makeCell(PageFree, KindData), oob{}},
		{"free page with a tag", 4, 0, oob{tag: 9}},
		{"free page with a seq delta", 4, 0, oob{seq: 9}},
	} {
		keepCell, keepOOB := c.cells[bad.page], c.oob[bad.page]
		c.cells[bad.page], c.oob[bad.page] = bad.cell, bad.oob
		if err := c.CheckInvariants(); err == nil {
			t.Fatalf("CheckInvariants accepted a %s", bad.name)
		}
		c.cells[bad.page], c.oob[bad.page] = keepCell, keepOOB
	}

	for i := range metas {
		if err := c.Invalidate(PPN(i)); err != nil {
			t.Fatal(err)
		}
		if got := c.MetaOf(PPN(i)); got != metas[i] {
			t.Fatalf("Invalidate changed MetaOf(%d) to %+v", i, got)
		}
	}
	if _, err := c.Erase(0); err != nil {
		t.Fatal(err)
	}
	for i := range metas {
		if got := c.MetaOf(PPN(i)); got != (Meta{}) {
			t.Fatalf("after Erase MetaOf(%d) = %+v, want zero", i, got)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOOBRecordIs8Bytes pins the per-page layout beside the PPN and GCMove
// pins of internal/ftl: a widened field fails here, not in a benchmark.
func TestOOBRecordIs8Bytes(t *testing.T) {
	if got := unsafe.Sizeof(oob{}); got != 8 {
		t.Errorf("oob record is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(cell(0)); got != 1 {
		t.Errorf("state/kind cell is %d bytes, want 1", got)
	}
}

// TestSeqRoundTripRandomInterleavings: programs interleave over many blocks
// with one chip-wide increasing Seq that starts far above 32 bits, in order
// and out of order, across erase/reprogram cycles. MetaOf must hand back the
// absolute Seq of every programmed page after every step's worth of
// neighbours, a free page must read as the zero Meta however stale the base
// of its block (or of the block's previous life), TagOf must agree with
// MetaOf on kind and tag, and the invariants hold.
func TestSeqRoundTripRandomInterleavings(t *testing.T) {
	for _, outOfOrder := range []bool{false, true} {
		cfg := DefaultConfig(12)
		cfg.PagesPerBlock = 8
		cfg.AllowOutOfOrder = outOfOrder
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(41))
		want := make(map[PPN]Meta)
		seq := int64(1) << 45
		for step := 0; step < 6000; step++ {
			blk := BlockID(rng.Intn(cfg.NumBlocks))
			var free []int
			for off := 0; off < cfg.PagesPerBlock; off++ {
				if c.State(c.PageAt(blk, off)) == PageFree {
					free = append(free, off)
				}
			}
			if len(free) == 0 || rng.Intn(40) == 0 { // full, or now and then a part-programmed block
				for off := 0; off < cfg.PagesPerBlock; off++ {
					p := c.PageAt(blk, off)
					if c.State(p) == PageValid {
						if err := c.Invalidate(p); err != nil {
							t.Fatal(err)
						}
					}
					delete(want, p)
				}
				if _, err := c.Erase(blk); err != nil {
					t.Fatal(err)
				}
				continue
			}
			off := free[0]
			if outOfOrder {
				off = free[rng.Intn(len(free))]
			}
			seq += 1 + rng.Int63n(1<<20) // gaps: the delta is a distance, not a count
			p := c.PageAt(blk, off)
			m := Meta{Kind: KindData + PageKind(rng.Intn(2)), Tag: rng.Int63n(1 << 31), Seq: seq}
			if _, err := c.Program(p, m); err != nil {
				t.Fatalf("outOfOrder=%v step %d: %v", outOfOrder, step, err)
			}
			want[p] = m
			if step%97 == 0 {
				for q := PPN(0); int64(q) < cfg.TotalPages(); q++ {
					if got := c.MetaOf(q); got != want[q] { // the zero Meta for a page not in want
						t.Fatalf("outOfOrder=%v step %d: MetaOf(%d) = %+v, want %+v", outOfOrder, step, q, got, want[q])
					}
					if kind, tag := c.TagOf(q); kind != want[q].Kind || tag != want[q].Tag {
						t.Fatalf("outOfOrder=%v step %d: TagOf(%d) = %v, %d, want %v, %d", outOfOrder, step, q, kind, tag, want[q].Kind, want[q].Tag)
					}
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if c.Stats().Erases < 100 {
			t.Fatalf("only %d erases: the base never reset", c.Stats().Erases)
		}
	}
}

// TestProgramRejectsSeqOutsideBlockWindow: the stored Seq is 32 bits above
// the block's first program. One below the base, or 2^32 above it, is an
// illegal program that changes nothing — and the base belongs to the block's
// current life only.
func TestProgramRejectsSeqOutsideBlockWindow(t *testing.T) {
	c := testChip(t, 2)
	const base = int64(5_000_000_000)
	if _, err := c.Program(0, Meta{Kind: KindData, Tag: 1, Seq: base}); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	for _, seq := range []int64{base - 1, 0, math.MinInt64, base + 1<<32, math.MaxInt64} {
		_, err := c.Program(1, Meta{Kind: KindData, Tag: 2, Seq: seq})
		var oe *OpError
		if !errors.As(err, &oe) || oe.Op != "program" || oe.Page != 1 {
			t.Fatalf("seq %d: err = %v, want a program OpError on page 1", seq, err)
		}
		if c.State(1) != PageFree || c.MetaOf(1) != (Meta{}) || c.WritePtr(0) != 1 || c.ValidCount(0) != 1 ||
			c.Stats() != stats || c.MetaOf(0).Seq != base {
			t.Fatalf("seq %d: rejected program changed the chip", seq)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// The edges of the window are legal, and so is a negative base.
	if _, err := c.Program(1, Meta{Kind: KindData, Tag: 2, Seq: base + math.MaxUint32}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Program(4, Meta{Kind: KindData, Tag: 3, Seq: -7}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Program(5, Meta{Kind: KindData, Tag: 4, Seq: -7 + math.MaxUint32}); err != nil {
		t.Fatal(err)
	}
	for p, want := range map[PPN]int64{0: base, 1: base + math.MaxUint32, 4: -7, 5: -7 + math.MaxUint32} {
		if got := c.MetaOf(p).Seq; got != want {
			t.Fatalf("MetaOf(%d).Seq = %d, want %d", p, got, want)
		}
	}
	// A rejected first program must not set a base either: after an erase the
	// block takes any Seq, lower than its previous life's included.
	for _, p := range []PPN{0, 1} {
		if err := c.Invalidate(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Erase(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Program(0, Meta{Kind: KindData, Tag: math.MaxInt32 + 1, Seq: 1 << 50}); err == nil {
		t.Fatal("wide tag accepted")
	}
	if _, err := c.Program(0, Meta{Kind: KindData, Tag: 1, Seq: 3}); err != nil {
		t.Fatalf("first program after an erase refused: %v", err)
	}
	if got := c.MetaOf(0).Seq; got != 3 {
		t.Fatalf("MetaOf(0).Seq = %d, want 3", got)
	}
}

// TestAddressArithmeticMatchesDivision checks the reciprocal-multiplication
// page → block/offset/die computation against plain / and % for every PPN
// of small chips, for block sizes that are one, prime, composite and powers
// of two, and then on the divisor alone up to the largest legal PPN.
func TestAddressArithmeticMatchesDivision(t *testing.T) {
	for _, ppb := range []int{1, 3, 48, 64, 96} {
		for _, dies := range []int{1, 3, 8} {
			cfg := DefaultConfig(41)
			cfg.PagesPerBlock = ppb
			cfg.Channels, cfg.DiesPerChannel = dies, 1
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < cfg.NumBlocks*ppb; p++ {
				blk, off := p/ppb, p%ppb
				die := blk % dies
				ppn := PPN(p)
				if int(c.Block(ppn)) != blk || c.Offset(ppn) != off || c.DieOf(ppn) != die ||
					c.DieOfBlock(BlockID(blk)) != die || c.PageAt(BlockID(blk), off) != ppn {
					t.Fatalf("ppb %d dies %d ppn %d: block %d offset %d die %d dieOfBlock %d pageAt %d, want %d %d %d %d %d",
						ppb, dies, p, c.Block(ppn), c.Offset(ppn), c.DieOf(ppn), c.DieOfBlock(BlockID(blk)),
						c.PageAt(BlockID(blk), off), blk, off, die, die, p)
				}
				if cfg.DieOf(BlockID(blk)) != die {
					t.Fatalf("Config.DieOf(%d) = %d, want %d", blk, cfg.DieOf(BlockID(blk)), die)
				}
			}
		}
	}
	// The chip of the largest legal geometry cannot be built, but its
	// arithmetic is the divisor's: check the top of the PPN range, and
	// around every multiple boundary a stride lands on, for divisors up
	// to the largest.
	const top = math.MaxInt32 - 1 // largest legal PPN
	for _, d := range []int{1, 2, 3, 7, 48, 64, 96, 1000, 65535, 65536, 65537, 1<<30 - 1, 1 << 30, math.MaxInt32} {
		v := NewDivisor(d)
		check := func(n uint32) {
			if q, r := v.DivMod(n); q != n/uint32(d) || r != n%uint32(d) {
				t.Fatalf("%d DivMod %d = %d, %d; want %d, %d", n, d, q, r, n/uint32(d), n%uint32(d))
			}
		}
		for n := uint32(top); n > top-5000; n-- {
			check(n)
		}
		for n := uint32(0); n < 5000; n++ {
			check(n)
		}
		for k := uint64(1); k*uint64(d) <= top && k < 3000; k++ {
			m := uint32(k * uint64(d))
			check(m - 1)
			check(m)
		}
		if q := uint32(top / d); q > 0 {
			check(q*uint32(d) - 1)
			check(q * uint32(d))
		}
	}
}

func TestDefaultConfigMatchesPaperTable3(t *testing.T) {
	cfg := DefaultConfig(16)
	if cfg.PageSize != 4096 {
		t.Errorf("PageSize = %d, want 4096", cfg.PageSize)
	}
	if got := cfg.PageSize * cfg.PagesPerBlock; got != 256*1024 {
		t.Errorf("block size = %d, want 256KiB", got)
	}
	if cfg.ReadLatency != 25*time.Microsecond {
		t.Errorf("ReadLatency = %v, want 25µs", cfg.ReadLatency)
	}
	if cfg.WriteLatency != 200*time.Microsecond {
		t.Errorf("WriteLatency = %v, want 200µs", cfg.WriteLatency)
	}
	if cfg.EraseLatency != 1500*time.Microsecond {
		t.Errorf("EraseLatency = %v, want 1.5ms", cfg.EraseLatency)
	}
}

func TestProgramReadLifecycle(t *testing.T) {
	c := testChip(t, 2)
	p := c.PageAt(0, 0)

	if _, err := c.Read(p); err == nil {
		t.Fatal("read of free page succeeded")
	}
	lat, err := c.Program(p, Meta{Kind: KindData, Tag: 42})
	if err != nil {
		t.Fatal(err)
	}
	if lat != c.Config().WriteLatency {
		t.Fatalf("program latency = %v, want %v", lat, c.Config().WriteLatency)
	}
	if c.State(p) != PageValid {
		t.Fatalf("state = %v, want valid", c.State(p))
	}
	if m := c.MetaOf(p); m.Kind != KindData || m.Tag != 42 {
		t.Fatalf("meta = %+v", m)
	}
	lat, err = c.Read(p)
	if err != nil {
		t.Fatal(err)
	}
	if lat != c.Config().ReadLatency {
		t.Fatalf("read latency = %v, want %v", lat, c.Config().ReadLatency)
	}
}

func TestProgramRules(t *testing.T) {
	c := testChip(t, 1)
	p0, p1 := c.PageAt(0, 0), c.PageAt(0, 1)

	// Out-of-order program rejected.
	if _, err := c.Program(p1, Meta{Kind: KindData, Tag: 1}); err == nil {
		t.Fatal("out-of-order program succeeded")
	}
	if _, err := c.Program(p0, Meta{Kind: KindData, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	// Overwrite rejected.
	if _, err := c.Program(p0, Meta{Kind: KindData, Tag: 2}); err == nil {
		t.Fatal("overwrite succeeded")
	}
	// Missing kind rejected.
	if _, err := c.Program(p1, Meta{}); err == nil {
		t.Fatal("program without kind succeeded")
	}
	var opErr *OpError
	_, err := c.Program(p0, Meta{Kind: KindData})
	if !errors.As(err, &opErr) {
		t.Fatalf("error %T, want *OpError", err)
	}
}

func TestInvalidateAndValidCount(t *testing.T) {
	c := testChip(t, 1)
	for i := 0; i < 3; i++ {
		if _, err := c.Program(c.PageAt(0, i), Meta{Kind: KindData, Tag: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.ValidCount(0); got != 3 {
		t.Fatalf("ValidCount = %d, want 3", got)
	}
	if err := c.Invalidate(c.PageAt(0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := c.ValidCount(0); got != 2 {
		t.Fatalf("ValidCount = %d, want 2", got)
	}
	// Double invalidate rejected.
	if err := c.Invalidate(c.PageAt(0, 1)); err == nil {
		t.Fatal("double invalidate succeeded")
	}
	// Invalidate of free page rejected.
	if err := c.Invalidate(c.PageAt(0, 3)); err == nil {
		t.Fatal("invalidate of free page succeeded")
	}
}

func TestEraseRules(t *testing.T) {
	c := testChip(t, 1)
	ppb := c.Config().PagesPerBlock
	for i := 0; i < ppb; i++ {
		if _, err := c.Program(c.PageAt(0, i), Meta{Kind: KindData, Tag: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Erase with valid pages rejected.
	if _, err := c.Erase(0); err == nil {
		t.Fatal("erase of block with valid pages succeeded")
	}
	for i := 0; i < ppb; i++ {
		if err := c.Invalidate(c.PageAt(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	lat, err := c.Erase(0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != c.Config().EraseLatency {
		t.Fatalf("erase latency = %v, want %v", lat, c.Config().EraseLatency)
	}
	if c.EraseCount(0) != 1 {
		t.Fatalf("EraseCount = %d, want 1", c.EraseCount(0))
	}
	if c.WritePtr(0) != 0 {
		t.Fatalf("WritePtr = %d, want 0 after erase", c.WritePtr(0))
	}
	// Pages reusable after erase.
	if _, err := c.Program(c.PageAt(0, 0), Meta{Kind: KindData, Tag: 9}); err != nil {
		t.Fatal(err)
	}
}

func TestEnduranceLimit(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.PagesPerBlock = 2
	cfg.EraseLimit = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wearOnce := func() error {
		for i := 0; i < 2; i++ {
			if _, err := c.Program(c.PageAt(0, i), Meta{Kind: KindData, Tag: 1}); err != nil {
				return err
			}
			if err := c.Invalidate(c.PageAt(0, i)); err != nil {
				return err
			}
		}
		_, err := c.Erase(0)
		return err
	}
	if err := wearOnce(); err != nil {
		t.Fatal(err)
	}
	if c.Worn(0) {
		t.Fatal("worn after 1 erase with limit 2")
	}
	if err := wearOnce(); err != nil {
		t.Fatal(err)
	}
	if !c.Worn(0) {
		t.Fatal("not worn after reaching erase limit")
	}
	if _, err := c.Program(c.PageAt(0, 0), Meta{Kind: KindData, Tag: 1}); err == nil {
		t.Fatal("program to worn block succeeded")
	}
}

func TestFailureInjection(t *testing.T) {
	c := testChip(t, 1)
	boom := errors.New("boom")
	c.FailNext("program", boom)
	if _, err := c.Program(c.PageAt(0, 0), Meta{Kind: KindData, Tag: 1}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected", err)
	}
	// Injection consumed; next op succeeds.
	if _, err := c.Program(c.PageAt(0, 0), Meta{Kind: KindData, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	c.FailNext("read", boom)
	if _, err := c.Read(c.PageAt(0, 0)); !errors.Is(err, boom) {
		t.Fatalf("read err = %v, want injected", err)
	}
	c.FailNext("erase", boom)
	if err := c.Invalidate(c.PageAt(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Erase(0); !errors.Is(err, boom) {
		t.Fatalf("erase err = %v, want injected", err)
	}
}

func TestStatsCounting(t *testing.T) {
	c := testChip(t, 1)
	for i := 0; i < 4; i++ {
		if _, err := c.Program(c.PageAt(0, i), Meta{Kind: KindData, Tag: int64(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(c.PageAt(0, i)); err != nil {
			t.Fatal(err)
		}
		if err := c.Invalidate(c.PageAt(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Erase(0); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Reads != 4 || s.Programs != 4 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if c.TotalErases() != 1 {
		t.Fatalf("TotalErases = %d", c.TotalErases())
	}
}

func TestAddressHelpers(t *testing.T) {
	c := testChip(t, 3) // 4 pages per block
	p := c.PageAt(2, 3)
	if p != PPN(11) {
		t.Fatalf("PageAt(2,3) = %d, want 11", p)
	}
	if c.Block(p) != 2 {
		t.Fatalf("Block(%d) = %d, want 2", p, c.Block(p))
	}
	if c.Offset(p) != 3 {
		t.Fatalf("Offset(%d) = %d, want 3", p, c.Offset(p))
	}
	if InvalidPPN.Valid() {
		t.Fatal("InvalidPPN reports Valid")
	}
	if !p.Valid() {
		t.Fatal("real PPN reports invalid")
	}
}

// TestQuickStateMachine drives the chip with random legal operations and
// checks invariants after every step.
func TestQuickStateMachine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(4)
		cfg.PagesPerBlock = 8
		c, err := New(cfg)
		if err != nil {
			return false
		}
		var programmed []PPN // pages in valid state
		for step := 0; step < 400; step++ {
			switch rng.Intn(4) {
			case 0: // program next page of a random non-full block
				blk := BlockID(rng.Intn(cfg.NumBlocks))
				if c.WritePtr(blk) >= cfg.PagesPerBlock {
					continue
				}
				p := c.PageAt(blk, c.WritePtr(blk))
				if _, err := c.Program(p, Meta{Kind: KindData, Tag: int64(step)}); err != nil {
					t.Log(err)
					return false
				}
				programmed = append(programmed, p)
			case 1: // invalidate a random valid page
				if len(programmed) == 0 {
					continue
				}
				i := rng.Intn(len(programmed))
				if err := c.Invalidate(programmed[i]); err != nil {
					t.Log(err)
					return false
				}
				programmed = append(programmed[:i], programmed[i+1:]...)
			case 2: // erase a random block with zero valid pages
				blk := BlockID(rng.Intn(cfg.NumBlocks))
				if c.ValidCount(blk) != 0 {
					continue
				}
				if _, err := c.Erase(blk); err != nil {
					t.Log(err)
					return false
				}
			case 3: // read a random valid page
				if len(programmed) == 0 {
					continue
				}
				if _, err := c.Read(programmed[rng.Intn(len(programmed))]); err != nil {
					t.Log(err)
					return false
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStateAndKindStrings(t *testing.T) {
	if PageFree.String() != "free" || PageValid.String() != "valid" || PageInvalid.String() != "invalid" {
		t.Fatal("PageState strings wrong")
	}
	if KindData.String() != "data" || KindTranslation.String() != "translation" || KindNone.String() != "none" {
		t.Fatal("PageKind strings wrong")
	}
	if PageState(9).String() == "" || PageKind(9).String() == "" {
		t.Fatal("unknown values must still format")
	}
}

func TestOutOfOrderProgramming(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.PagesPerBlock = 4
	cfg.AllowOutOfOrder = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Program offsets 2, 0, 3 in that order: legal in out-of-order mode.
	for _, off := range []int{2, 0, 3} {
		if _, err := c.Program(c.PageAt(0, off), Meta{Kind: KindData, Tag: int64(off)}); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
	}
	if c.WritePtr(0) != 4 {
		t.Fatalf("write pointer = %d, want high-water 4", c.WritePtr(0))
	}
	// Overwrite still rejected.
	if _, err := c.Program(c.PageAt(0, 2), Meta{Kind: KindData, Tag: 9}); err == nil {
		t.Fatal("overwrite accepted")
	}
	// Gap at offset 1 remains programmable.
	if _, err := c.Program(c.PageAt(0, 1), Meta{Kind: KindData, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Erase works once all pages are invalid.
	for off := 0; off < 4; off++ {
		if err := c.Invalidate(c.PageAt(0, off)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Erase(0); err != nil {
		t.Fatal(err)
	}
}
