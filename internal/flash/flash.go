// Package flash simulates a NAND flash chip at page/block granularity.
//
// The chip is a pure state machine: operations validate NAND legality rules
// (no overwrite without erase, pages within a block programmed in order,
// reads only of programmed pages) and return the latency each operation
// costs. Callers — the FTL layer — accumulate latencies into request service
// times and attribute each operation to a cause for the paper's accounting
// (user access vs. address translation vs. garbage collection).
//
// Geometry and latencies default to Table 3 of the TPFTL paper: 4 KB pages,
// 256 KB blocks (64 pages), 25 µs read, 200 µs program, 1.5 ms erase.
package flash

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/cacheline"
)

// PPN is a physical page number: block*PagesPerBlock + offset. It is 4 bytes
// wide, the size the paper stores in a translation page (§1), so every
// per-page table of the simulator (persisted view, GTD, cache entries) costs
// what the modelled device pays.
type PPN int32

// InvalidPPN marks an unmapped logical page.
const InvalidPPN PPN = -1

// MaxPages is the largest physical page count a 4-byte PPN addresses
// (8 TiB at 4 KiB pages); Config.Validate refuses a bigger geometry.
const MaxPages = math.MaxInt32

// Valid reports whether p refers to a real physical page.
func (p PPN) Valid() bool { return p >= 0 }

// BlockID identifies a physical flash block.
type BlockID int32

// PageState tracks the lifecycle of one physical page.
type PageState uint8

const (
	// PageFree means erased and programmable.
	PageFree PageState = iota
	// PageValid means programmed and holding live data.
	PageValid
	// PageInvalid means programmed but superseded; reclaimed by GC.
	PageInvalid
)

func (s PageState) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// PageKind distinguishes what an FTL stored in a page. It matters only to
// garbage collection, which must treat data pages and translation pages
// differently.
type PageKind uint8

const (
	// KindNone is the kind of a free page.
	KindNone PageKind = iota
	// KindData marks a page holding user data; Tag is the LPN.
	KindData
	// KindTranslation marks a page holding a slice of the mapping table;
	// Tag is the VTPN.
	KindTranslation
)

func (k PageKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindData:
		return "data"
	case KindTranslation:
		return "translation"
	default:
		return fmt.Sprintf("PageKind(%d)", uint8(k))
	}
}

// Meta is the out-of-band metadata an FTL attaches to a programmed page
// (real SSDs store this in the page's spare area). GC uses it to find the
// logical owner of a valid page without consulting the mapping cache, and
// crash recovery uses the sequence number to order versions of the same
// logical page when rebuilding the mapping from a full scan.
type Meta struct {
	Kind PageKind
	Tag  int64 // LPN for data pages, VTPN for translation pages; must fit 32 bits
	Seq  int64 // monotonically increasing program sequence number; stored block-relative (see Program)
}

// Config describes chip geometry and timing.
type Config struct {
	PageSize      int // bytes per page
	PagesPerBlock int
	NumBlocks     int
	// Channels and DiesPerChannel describe the package's parallelism: the
	// chip exposes Channels independent buses, each serving DiesPerChannel
	// dies. Blocks interleave across dies (block b lives on die
	// b mod NumDies), so consecutive blocks land on consecutive channels.
	// Zero means 1. The chip itself stays a pure state machine — dies only
	// label which occupancy window an operation charges; the event-driven
	// scheduler (internal/ssd) turns those labels into overlapped time.
	Channels       int
	DiesPerChannel int
	ReadLatency    time.Duration
	WriteLatency   time.Duration
	EraseLatency   time.Duration
	// EraseLimit, if > 0, makes a block fail permanently after that many
	// erases (endurance failure injection). 0 means unlimited.
	EraseLimit int
	// AllowOutOfOrder permits programming a block's pages in any order, as
	// SLC-era NAND did. Block-level FTLs, which place pages at fixed
	// offsets, require it; modern page-level FTLs keep the default strict
	// sequential-program rule.
	AllowOutOfOrder bool
}

// DefaultConfig returns the Table 3 parameters of the TPFTL paper, sized to
// hold numBlocks blocks.
func DefaultConfig(numBlocks int) Config {
	return Config{
		PageSize:      4096,
		PagesPerBlock: 64,
		NumBlocks:     numBlocks,
		ReadLatency:   25 * time.Microsecond,
		WriteLatency:  200 * time.Microsecond,
		EraseLatency:  1500 * time.Microsecond,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.PageSize <= 0:
		return fmt.Errorf("flash: PageSize %d must be positive", c.PageSize)
	case c.PagesPerBlock <= 0:
		return fmt.Errorf("flash: PagesPerBlock %d must be positive", c.PagesPerBlock)
	case c.NumBlocks <= 0:
		return fmt.Errorf("flash: NumBlocks %d must be positive", c.NumBlocks)
	case c.Channels < 0:
		return fmt.Errorf("flash: Channels %d must not be negative", c.Channels)
	case c.DiesPerChannel < 0:
		return fmt.Errorf("flash: DiesPerChannel %d must not be negative", c.DiesPerChannel)
	case c.NumBlocks > MaxPages/c.PagesPerBlock:
		// Compared by division so that an absurd geometry cannot wrap the
		// product; the float renders it exactly up to 2^53 pages.
		return fmt.Errorf("flash: %d blocks × %d pages per block = %.0f physical pages, more than the %d a 4-byte PPN addresses (8 TiB at 4 KiB pages)",
			c.NumBlocks, c.PagesPerBlock, float64(c.NumBlocks)*float64(c.PagesPerBlock), MaxPages)
	}
	return nil
}

// NumChannels returns the channel count (0 reads as 1).
func (c Config) NumChannels() int {
	if c.Channels <= 0 {
		return 1
	}
	return c.Channels
}

// NumDies returns the total die count, Channels × DiesPerChannel.
func (c Config) NumDies() int {
	d := c.DiesPerChannel
	if d <= 0 {
		d = 1
	}
	return c.NumChannels() * d
}

// DieOf returns the die holding blk: blocks interleave across dies so
// consecutive blocks stripe across channels first.
func (c Config) DieOf(blk BlockID) int { return int(blk) % c.NumDies() }

// ChannelOfDie returns the channel serving die.
func (c Config) ChannelOfDie(die int) int { return die % c.NumChannels() }

// TotalPages returns the number of physical pages the chip holds.
func (c Config) TotalPages() int64 { return int64(c.NumBlocks) * int64(c.PagesPerBlock) }

// Stats counts operations performed on the chip.
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64
}

// block is per-block simulator state.
type block struct {
	// seqBase is the Meta.Seq of the first program since the block's last
	// erase; each page stores its own Seq as a 32-bit distance above it. It
	// means nothing while writePtr is 0 (MetaOf does not read it for a free
	// page, Program sets it before it reads it).
	seqBase    int64
	writePtr   int // next programmable offset; PagesPerBlock means full
	validCount int
	eraseCount int
	worn       bool
}

// cell is a page's state (bits 0–1) and kind (bits 2–3) in one byte: the
// checks of Read, Invalidate and GC's scan touch one dense byte per page.
// The zero cell is the erased page, PageFree with KindNone.
type cell uint8

const (
	cellStateMask = 0b11
	cellKindShift = 2
)

// makeCell packs a state and a kind.
func makeCell(s PageState, k PageKind) cell { return cell(s) | cell(k)<<cellKindShift }

// state unpacks the page state.
func (c cell) state() PageState { return PageState(c & cellStateMask) }

// kind unpacks the page kind.
func (c cell) kind() PageKind { return PageKind(c >> cellKindShift) }

// with returns c in state s, its kind kept.
func (c cell) with(s PageState) cell { return c&^cellStateMask | cell(s) }

// oob is a programmed page's out-of-band record: the tag at the 4 bytes a
// PPN-sized logical address needs, and the program sequence number as its
// distance above the block's seqBase. All pages of a block are programmed
// after the block's first, so the distance is never negative; Program refuses
// one that does not fit.
type oob struct {
	tag int32
	seq uint32
}

// Divisor divides non-negative 31-bit values by a positive 31-bit constant
// fixed at construction, with one 64×64 multiplication and no division
// instruction: for m = ⌊(2^64−1)/d⌋ the quotient n/d is the high word of
// m·(n+1). Exact for every such d and n: m·d = 2^64−e with 1 ≤ e ≤ d, so
// m·(n+1)/2^64 falls short of (n+1)/d by (n+1)·e/(d·2^64), which is more
// than 0 and — (n+1)·e being below 2^62 — less than 1/d; that lands it in
// [n/d, (n+1)/d), whose floor is ⌊n/d⌋. It is the one computation for every
// geometry: page → block, page → offset and block → die go through it here,
// LPN → translation page in internal/ftl.
type Divisor struct {
	d uint32
	m uint64
}

// NewDivisor returns the Divisor by d, which must be in [1, 2^31).
func NewDivisor(d int) Divisor { return Divisor{d: uint32(d), m: math.MaxUint64 / uint64(d)} }

// DivMod returns n/d and n%d for n in [0, 2^31).
func (v Divisor) DivMod(n uint32) (q, r uint32) {
	hi, _ := bits.Mul64(v.m, uint64(n)+1)
	q = uint32(hi)
	return q, n - q*v.d
}

// Chip simulates one NAND flash chip.
type Chip struct {
	cfg Config
	// perBlock, perDie and totalPages cache the derived geometry: the
	// per-page hot path (Block, Offset, DieOf, mustContain) must not
	// re-derive it through Config's value-receiver methods, which copy the
	// whole struct per call.
	perBlock   Divisor // by PagesPerBlock
	perDie     Divisor // by NumDies
	totalPages int64
	// Per page: one state/kind byte and one 8-byte out-of-band record, 9
	// bytes where a PageState beside a []Meta took 25.
	cells  []cell
	oob    []oob
	blocks []block
	stats  Stats
	// failNextOps holds injected errors keyed by op name, consumed in order.
	failNext map[string][]error
	// faults, when non-nil, is the armed fault plan (see fault.go).
	faults *faultState
}

// New creates a chip with all blocks erased.
func New(cfg Config) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pages := cfg.TotalPages()
	return cacheline.Isolated(Chip{
		cfg:        cfg,
		perBlock:   NewDivisor(cfg.PagesPerBlock),
		perDie:     NewDivisor(cfg.NumDies()),
		totalPages: pages,
		cells:      make([]cell, pages),
		oob:        make([]oob, pages),
		blocks:     make([]block, cfg.NumBlocks),
	}), nil
}

// Config returns the chip's configuration.
func (c *Chip) Config() Config { return c.cfg }

// Stats returns a copy of the operation counters.
func (c *Chip) Stats() Stats { return c.stats }

// Block returns the block containing p.
func (c *Chip) Block(p PPN) BlockID {
	blk, _ := c.perBlock.DivMod(uint32(p))
	return BlockID(blk)
}

// Offset returns p's page offset within its block.
func (c *Chip) Offset(p PPN) int {
	_, off := c.perBlock.DivMod(uint32(p))
	return int(off)
}

// DieOf returns the die holding p's block.
func (c *Chip) DieOf(p PPN) int { return c.DieOfBlock(c.Block(p)) }

// DieOfBlock returns the die holding blk. Equivalent to Config().DieOf(blk)
// without copying the Config on the per-operation path.
func (c *Chip) DieOfBlock(blk BlockID) int {
	_, die := c.perDie.DivMod(uint32(blk))
	return int(die)
}

// PageAt returns the PPN of page offset off within blk.
func (c *Chip) PageAt(blk BlockID, off int) PPN {
	return PPN(int(blk)*int(c.perBlock.d) + off)
}

// State returns the state of page p. It inlines (the mask is spelled out
// rather than called through cell.state to stay inside the budget): the
// device checks the state of every page a translator returns.
func (c *Chip) State(p PPN) PageState {
	c.mustContain(p)
	return PageState(c.cells[p] & cellStateMask)
}

// MetaOf returns the out-of-band metadata of page p: what Program stored,
// the sequence number absolute again. A free page has none.
func (c *Chip) MetaOf(p PPN) Meta {
	c.mustContain(p)
	cl := c.cells[p]
	if cl.state() == PageFree {
		return Meta{}
	}
	o := c.oob[p]
	return Meta{Kind: cl.kind(), Tag: int64(o.tag), Seq: c.blocks[c.Block(p)].seqBase + int64(o.seq)}
}

// TagOf returns the kind and tag MetaOf returns for p, without the sequence
// number: a caller that programs a copy under a fresh one (GC's migration)
// would derive p's block only to throw the result away. A free page's record
// is zero, so it reads as KindNone and tag 0.
func (c *Chip) TagOf(p PPN) (PageKind, int64) {
	c.mustContain(p)
	return c.cells[p].kind(), int64(c.oob[p].tag)
}

// ValidCount returns the number of valid pages in blk.
func (c *Chip) ValidCount(blk BlockID) int {
	c.mustContainBlock(blk)
	return c.blocks[blk].validCount
}

// WritePtr returns the next programmable page offset in blk
// (== PagesPerBlock when the block is fully programmed).
func (c *Chip) WritePtr(blk BlockID) int {
	c.mustContainBlock(blk)
	return c.blocks[blk].writePtr
}

// EraseCount returns how many times blk has been erased.
func (c *Chip) EraseCount(blk BlockID) int {
	c.mustContainBlock(blk)
	return c.blocks[blk].eraseCount
}

// TotalErases returns the sum of erase counts over all blocks.
func (c *Chip) TotalErases() int64 { return c.stats.Erases }

// OpError describes an illegal flash operation.
type OpError struct {
	Op   string
	Page PPN
	Blk  BlockID
	Msg  string
}

func (e *OpError) Error() string {
	if e.Page >= 0 {
		return fmt.Sprintf("flash: %s ppn %d: %s", e.Op, e.Page, e.Msg)
	}
	return fmt.Sprintf("flash: %s block %d: %s", e.Op, e.Blk, e.Msg)
}

// Read reads page p, which must be programmed (valid or invalid — GC may
// legitimately read a page that was invalidated between scheduling and
// execution, and reading stale data is physically possible). It returns the
// read latency.
func (c *Chip) Read(p PPN) (time.Duration, error) {
	c.mustContain(p)
	if c.faults != nil {
		if err := c.faults.inject("read", p, -1); err != nil {
			return 0, err
		}
	}
	if err := c.takeInjected("read"); err != nil {
		return 0, err
	}
	if c.cells[p].state() == PageFree {
		return 0, &OpError{Op: "read", Page: p, Blk: -1, Msg: "page not programmed"}
	}
	c.stats.Reads++
	return c.cfg.ReadLatency, nil
}

// Program writes page p with metadata m. NAND rules enforced: the page must
// be free and must be the next in-order page of its block, and m.Seq must
// be no lower than, and fit 32 bits above, the Seq of the block's first
// program since its last erase. A refused program changes nothing. It
// returns the program latency.
func (c *Chip) Program(p PPN, m Meta) (time.Duration, error) {
	c.mustContain(p)
	q, r := c.perBlock.DivMod(uint32(p))
	blk, off := BlockID(q), int(r)
	if c.faults != nil {
		if err := c.faults.inject("program", p, blk); err != nil {
			return 0, err
		}
	}
	if err := c.takeInjected("program"); err != nil {
		return 0, err
	}
	b := &c.blocks[blk]
	if b.worn {
		return 0, &OpError{Op: "program", Page: p, Blk: blk, Msg: "block worn out"}
	}
	if c.cells[p].state() != PageFree {
		return 0, &OpError{Op: "program", Page: p, Blk: blk, Msg: "page already programmed"}
	}
	if !c.cfg.AllowOutOfOrder && off != b.writePtr {
		return 0, &OpError{Op: "program", Page: p, Blk: blk,
			Msg: fmt.Sprintf("out-of-order program: offset %d, write pointer %d", off, b.writePtr)}
	}
	if m.Kind == KindNone {
		return 0, &OpError{Op: "program", Page: p, Blk: blk, Msg: "missing page kind"}
	}
	tag := int32(m.Tag)
	if int64(tag) != m.Tag {
		return 0, &OpError{Op: "program", Page: p, Blk: blk,
			Msg: fmt.Sprintf("tag %d does not fit the 32-bit out-of-band field", m.Tag)}
	}
	// The first program since the erase sets the block's base — it is its
	// own base, so it cannot be refused below; later ones must land in the
	// 32 bits above it (the unsigned difference is exact whenever
	// m.Seq >= base, whatever the signs).
	if b.writePtr == 0 {
		b.seqBase = m.Seq
	}
	delta := uint64(m.Seq) - uint64(b.seqBase)
	if m.Seq < b.seqBase || delta > math.MaxUint32 {
		return 0, seqError(p, blk, m.Seq, b.seqBase)
	}
	c.cells[p] = makeCell(PageValid, m.Kind)
	c.oob[p] = oob{tag: tag, seq: uint32(delta)}
	if off+1 > b.writePtr {
		b.writePtr = off + 1
	}
	b.validCount++
	c.stats.Programs++
	return c.cfg.WriteLatency, nil
}

// seqError is Program's refusal of a sequence number the out-of-band record
// cannot hold; out of line so that the refusal's formatting stays out of
// Program's frame.
//
//go:noinline
func seqError(p PPN, blk BlockID, seq, base int64) error {
	return &OpError{Op: "program", Page: p, Blk: blk,
		Msg: fmt.Sprintf("seq %d is not within 2^32 above the block's first program (seq %d)", seq, base)}
}

// Invalidate marks a previously valid page invalid. It costs nothing (it is
// a RAM-side bookkeeping action in a real FTL).
func (c *Chip) Invalidate(p PPN) error {
	_, err := c.MarkInvalid(p)
	return err
}

// MarkInvalid is Invalidate that also returns p's block, for a caller that
// keys its own bookkeeping by block: the block is derived once, here.
func (c *Chip) MarkInvalid(p PPN) (BlockID, error) {
	c.mustContain(p)
	if c.faults != nil && c.faults.cut {
		return -1, ErrPowerCut
	}
	cl := c.cells[p]
	if cl.state() != PageValid {
		return -1, &OpError{Op: "invalidate", Page: p, Blk: -1,
			Msg: "page not valid (state " + cl.state().String() + ")"}
	}
	c.cells[p] = cl.with(PageInvalid)
	blk := c.Block(p)
	c.blocks[blk].validCount--
	return blk, nil
}

// Erase erases blk, freeing all its pages. All pages must be invalid (the
// FTL must migrate valid pages first); erasing live data is a simulator bug.
// It returns the erase latency.
func (c *Chip) Erase(blk BlockID) (time.Duration, error) {
	c.mustContainBlock(blk)
	if c.faults != nil {
		if err := c.faults.inject("erase", -1, blk); err != nil {
			return 0, err
		}
	}
	if err := c.takeInjected("erase"); err != nil {
		return 0, err
	}
	b := &c.blocks[blk]
	if b.worn {
		return 0, &OpError{Op: "erase", Page: -1, Blk: blk, Msg: "block worn out"}
	}
	if b.validCount != 0 {
		return 0, &OpError{Op: "erase", Page: -1, Blk: blk,
			Msg: fmt.Sprintf("%d valid pages remain", b.validCount)}
	}
	// The zero cell and the zero record are the erased state. seqBase stays
	// as it is: nothing reads it before the next first program sets it.
	lo := c.PageAt(blk, 0)
	hi := lo + PPN(c.perBlock.d)
	clear(c.cells[lo:hi])
	clear(c.oob[lo:hi])
	b.writePtr = 0
	b.eraseCount++
	c.stats.Erases++
	if c.cfg.EraseLimit > 0 && b.eraseCount >= c.cfg.EraseLimit {
		b.worn = true
	}
	return c.cfg.EraseLatency, nil
}

// Worn reports whether blk has exceeded its erase limit.
func (c *Chip) Worn(blk BlockID) bool {
	c.mustContainBlock(blk)
	return c.blocks[blk].worn
}

// FailNext injects err as the result of the next operation of the given op
// ("read", "program" or "erase"). Multiple injections queue in FIFO order.
func (c *Chip) FailNext(op string, err error) {
	if c.failNext == nil {
		c.failNext = make(map[string][]error)
	}
	c.failNext[op] = append(c.failNext[op], err)
}

func (c *Chip) takeInjected(op string) error {
	if len(c.failNext) == 0 {
		return nil // FailNext never called: spare every operation the string-keyed lookup
	}
	q := c.failNext[op]
	if len(q) == 0 {
		return nil
	}
	err := q[0]
	c.failNext[op] = q[1:]
	return err
}

func (c *Chip) mustContain(p PPN) {
	if uint64(p) >= uint64(c.totalPages) {
		pageOutOfRange(p, c.totalPages)
	}
}

// pageOutOfRange is mustContain's panic, out of line so that the check
// stays small enough to inline into State, TagOf and DieOf: the device's
// per-page validity check of a translated page and GC's scan call them.
//
//go:noinline
func pageOutOfRange(p PPN, n int64) {
	panic(fmt.Sprintf("flash: ppn %d out of range [0,%d)", p, n))
}

func (c *Chip) mustContainBlock(blk BlockID) {
	if uint(blk) >= uint(c.cfg.NumBlocks) {
		blockOutOfRange(blk, c.cfg.NumBlocks)
	}
}

// blockOutOfRange is mustContainBlock's panic, out of line so that the check
// itself stays small enough to inline into WritePtr and ValidCount.
//
//go:noinline
func blockOutOfRange(blk BlockID, n int) {
	panic(fmt.Sprintf("flash: block %d out of range [0,%d)", blk, n))
}

// CheckInvariants validates the chip's internal consistency: every state/kind
// byte is one Program, Invalidate or Erase can leave, a free page carries no
// metadata, per-block valid counts match page states, write pointers bound
// programmed pages. Used by property tests.
func (c *Chip) CheckInvariants() error {
	for bi := range c.blocks {
		b := &c.blocks[bi]
		valid := 0
		for off := 0; off < c.cfg.PagesPerBlock; off++ {
			p := c.PageAt(BlockID(bi), off)
			cl := c.cells[p]
			st := cl.state()
			// kind() is everything above the state bits, so this also rejects
			// a byte with any of bits 4–7 set.
			if st > PageInvalid || cl.kind() > KindTranslation {
				return fmt.Errorf("flash: block %d offset %d holds the impossible state/kind byte %#08b", bi, off, uint8(cl))
			}
			if st == PageFree && (cl != 0 || c.oob[p] != oob{}) {
				return fmt.Errorf("flash: block %d offset %d free with kind %v, tag %d, seq delta %d left behind",
					bi, off, cl.kind(), c.oob[p].tag, c.oob[p].seq)
			}
			if st == PageValid {
				valid++
			}
			if !c.cfg.AllowOutOfOrder && off < b.writePtr && st == PageFree {
				return fmt.Errorf("flash: block %d offset %d free below write pointer %d", bi, off, b.writePtr)
			}
			if off >= b.writePtr && st != PageFree {
				return fmt.Errorf("flash: block %d offset %d programmed at/above write pointer %d", bi, off, b.writePtr)
			}
			if st != PageFree && cl.kind() == KindNone {
				return fmt.Errorf("flash: block %d offset %d programmed without metadata", bi, off)
			}
		}
		if valid != b.validCount {
			return fmt.Errorf("flash: block %d valid count %d, counted %d", bi, b.validCount, valid)
		}
	}
	return nil
}
