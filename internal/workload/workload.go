// Package workload generates synthetic request streams calibrated to the
// enterprise traces used in the TPFTL paper's evaluation (Table 4).
//
// The proprietary UMass Financial and MSR Cambridge traces cannot be
// redistributed with this repository, so each of the four workloads is
// replaced by a generator that matches every statistic the paper reports for
// it — write ratio, mean request size, sequential-read/-write fraction and
// address-space size — plus the qualitative locality structure the paper's
// §3.2 analysis depends on: Zipf-distributed hot spots (temporal locality)
// and sequential runs interspersed with random accesses (spatial locality,
// Fig. 2a's diagonal streaks). Every result in the paper's evaluation is a
// function of these request-stream properties as seen by the mapping cache,
// so the calibrated surrogates preserve the comparative shape of the
// experiments. Real traces can still be replayed via internal/trace parsers.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/trace"
)

// Profile parameterizes a synthetic workload.
type Profile struct {
	// Name identifies the workload in reports.
	Name string
	// AddressSpace is the logical device size in bytes.
	AddressSpace int64
	// WriteRatio is the fraction of requests that are writes.
	WriteRatio float64
	// AvgRequestBytes is the mean request length in bytes.
	AvgRequestBytes int
	// SeqReadRatio / SeqWriteRatio are the fractions of reads/writes that
	// continue the preceding request's address range (Table 4 definition).
	SeqReadRatio  float64
	SeqWriteRatio float64
	// ZipfTheta controls temporal locality of the random component;
	// 0 disables skew, values toward 1 concentrate accesses. Enterprise
	// OLTP workloads such as Financial1 show strong temporal locality.
	ZipfTheta float64
	// HotFraction is the fraction of the address space that receives
	// HotAccessFraction of the random accesses (a coarse working-set
	// knob layered under the Zipf skew).
	HotFraction float64
	// SeqRunPages is the mean length, in pages, of a sequential run once
	// one starts. Longer runs model the MSR traces' large sequential
	// streams.
	SeqRunPages int
	// FootprintFraction is the fraction of the address space the trace
	// ever touches. Enterprise traces exercise only part of their device;
	// the untouched remainder is cold data that garbage collection
	// consolidates once and never revisits, which is what keeps the
	// paper's write amplification in the 2.4-5.1 range despite full-use
	// devices. 0 means 1 (the whole space).
	FootprintFraction float64
	// MeanInterarrival is the mean request inter-arrival time in
	// nanoseconds (exponential). It must be chosen so the simulated
	// device is stably utilized; see DefaultProfiles.
	MeanInterarrival int64

	// TrimRatio is the fraction of requests that are TRIM/discard
	// commands (0 disables them; the four paper workloads predate TRIM).
	TrimRatio float64
	// TrimAvgBytes is the mean TRIM length; 0 means 16× AvgRequestBytes
	// (file deletions discard far more than one I/O covers).
	TrimAvgBytes int
	// FlushEvery issues a flush barrier after every N write requests, the
	// fsync cadence of databases and journaling filesystems (0 disables).
	FlushEvery int
	// FUAFraction is the fraction of writes tagged force-unit-access
	// (write-through past the buffer cache, as journal commits are).
	FUAFraction float64
}

// Validate reports whether the profile is self-consistent.
func (p Profile) Validate() error {
	switch {
	case p.AddressSpace <= 0:
		return fmt.Errorf("workload %s: non-positive address space", p.Name)
	case p.WriteRatio < 0 || p.WriteRatio > 1:
		return fmt.Errorf("workload %s: write ratio %v out of [0,1]", p.Name, p.WriteRatio)
	case p.AvgRequestBytes <= 0:
		return fmt.Errorf("workload %s: non-positive request size", p.Name)
	case p.SeqReadRatio < 0 || p.SeqReadRatio > 1 || p.SeqWriteRatio < 0 || p.SeqWriteRatio > 1:
		return fmt.Errorf("workload %s: sequential ratios out of [0,1]", p.Name)
	case p.ZipfTheta < 0 || p.ZipfTheta >= 1:
		return fmt.Errorf("workload %s: zipf theta %v out of [0,1)", p.Name, p.ZipfTheta)
	case p.MeanInterarrival <= 0:
		return fmt.Errorf("workload %s: non-positive interarrival", p.Name)
	case p.FootprintFraction < 0 || p.FootprintFraction > 1:
		return fmt.Errorf("workload %s: footprint %v out of [0,1]", p.Name, p.FootprintFraction)
	case p.TrimRatio < 0 || p.TrimRatio >= 1:
		return fmt.Errorf("workload %s: trim ratio %v out of [0,1)", p.Name, p.TrimRatio)
	case p.TrimAvgBytes < 0:
		return fmt.Errorf("workload %s: negative trim size", p.Name)
	case p.FlushEvery < 0:
		return fmt.Errorf("workload %s: negative flush interval", p.Name)
	case p.FUAFraction < 0 || p.FUAFraction > 1:
		return fmt.Errorf("workload %s: FUA fraction %v out of [0,1]", p.Name, p.FUAFraction)
	}
	return nil
}

// footprintBytes returns the size of the touched address range.
func (p Profile) footprintBytes() int64 {
	f := p.FootprintFraction
	if f == 0 {
		f = 1
	}
	n := int64(float64(p.AddressSpace) * f)
	n = n / pageSize * pageSize
	if n < pageSize {
		n = pageSize
	}
	return n
}

// FootprintBytes returns the size of the address range the generator
// touches (page aligned).
func (p Profile) FootprintBytes() int64 { return p.footprintBytes() }

// The four paper workloads (Table 4), with address spaces scaled by the
// harness when a smaller run is requested. Interarrival times are tuned so
// that a DFTL device is busy but stable (the paper's response-time numbers
// include queueing delay, so the arrival process must load the device).
//
// Financial1/2: 512 MB address space, small random requests.
// MSR-ts/src: 16 GB address space, larger and more sequential requests.

// Financial1 approximates the UMass Financial1 OLTP trace:
// write-intensive (77.9 %), 3.5 KB average requests, almost entirely random
// (1.5 % / 1.8 % sequential), strong temporal locality.
func Financial1() Profile {
	return Profile{
		Name:              "Financial1",
		AddressSpace:      512 << 20,
		WriteRatio:        0.779,
		AvgRequestBytes:   3584, // 3.5 KB
		SeqReadRatio:      0.015,
		SeqWriteRatio:     0.018,
		ZipfTheta:         0.95,
		HotFraction:       0.15,
		SeqRunPages:       8,
		FootprintFraction: 0.40,
		MeanInterarrival:  3_000_000, // 3 ms: write-heavy service is slow
	}
}

// Financial2 approximates the UMass Financial2 trace: read-dominant (18 %
// writes), 2.4 KB average requests, random-dominant.
func Financial2() Profile {
	return Profile{
		Name:              "Financial2",
		AddressSpace:      512 << 20,
		WriteRatio:        0.18,
		AvgRequestBytes:   2458, // 2.4 KB
		SeqReadRatio:      0.008,
		SeqWriteRatio:     0.005,
		ZipfTheta:         0.95,
		HotFraction:       0.15,
		SeqRunPages:       8,
		FootprintFraction: 0.40,
		MeanInterarrival:  1_000_000, // 1 ms; read-dominant, faster service
	}
}

// MSRts approximates the MSR Cambridge "ts" server trace: write-dominant
// (82.4 %), 9 KB average requests, strongly sequential reads (47.2 %).
func MSRts() Profile {
	return Profile{
		Name:              "MSR-ts",
		AddressSpace:      16 << 30,
		WriteRatio:        0.824,
		AvgRequestBytes:   9 << 10,
		SeqReadRatio:      0.472,
		SeqWriteRatio:     0.06,
		ZipfTheta:         0.85,
		HotFraction:       0.10,
		SeqRunPages:       64,
		FootprintFraction: 0.12,
		MeanInterarrival:  2_000_000, // 2 ms; large writes
	}
}

// MSRsrc approximates the MSR Cambridge "src" source-control trace:
// write-dominant (88.7 %), 7.2 KB average requests, sequential.
func MSRsrc() Profile {
	return Profile{
		Name:              "MSR-src",
		AddressSpace:      16 << 30,
		WriteRatio:        0.887,
		AvgRequestBytes:   7373, // 7.2 KB
		SeqReadRatio:      0.226,
		SeqWriteRatio:     0.071,
		ZipfTheta:         0.85,
		HotFraction:       0.10,
		SeqRunPages:       48,
		FootprintFraction: 0.12,
		MeanInterarrival:  1_800_000,
	}
}

// FstrimHeavy models a filesystem running periodic fstrim over a busy
// device: Financial1's random-write character plus a steady stream of large
// page-aligned discards, the workload that exercises a translator's
// unmapped-read and GC-credit paths.
func FstrimHeavy() Profile {
	p := Financial1()
	p.Name = "fstrim-heavy"
	p.TrimRatio = 0.15
	p.TrimAvgBytes = 256 << 10 // 256 KB per discard, a deleted-file extent
	return p
}

// DatabaseFsync models a database committing through fsync: write-dominant
// with a flush barrier every few writes and journal commits tagged FUA.
func DatabaseFsync() Profile {
	p := Financial1()
	p.Name = "database-fsync"
	p.FlushEvery = 8
	p.FUAFraction = 0.10
	return p
}

// DefaultProfiles returns the paper's four workloads in evaluation order.
func DefaultProfiles() []Profile {
	return []Profile{Financial1(), Financial2(), MSRts(), MSRsrc()}
}

// AllProfiles returns every built-in profile: the paper's four plus the
// host-interface workloads (TRIM and flush/FUA).
func AllProfiles() []Profile {
	return append(DefaultProfiles(), FstrimHeavy(), DatabaseFsync())
}

// ProfileByName returns the named built-in profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range AllProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	switch name {
	case "fstrim", "trim":
		return FstrimHeavy(), nil
	case "fsync", "database":
		return DatabaseFsync(), nil
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// Scale returns a copy of p with the address space set to size bytes,
// preserving all ratio parameters. Experiments use this to run the MSR
// surrogates at reduced scale without changing their character.
func (p Profile) Scale(size int64) Profile {
	p.AddressSpace = size
	return p
}

// pageSize is the unit sequential runs and hot ranges are expressed in.
const pageSize = 4096

// sectorBytes quantizes generated request lengths (512 B disk sectors).
const sectorBytes = 512

// Generator produces a request stream for a profile. It is deterministic
// for a given seed.
type Generator struct {
	p   Profile
	rng *rand.Rand
	z   *zipf

	clock   int64
	prevEnd int64 // end offset of the previous request, -1 initially

	// Sequentiality is driven by one two-state Markov chain per direction
	// whose stationary continuation probability equals the Table 4 target
	// exactly, while its persistence (continue-after-continue
	// probability) stretches continuations into multi-request streams of
	// roughly SeqRunPages pages — the Fig. 2a diagonal structure.
	wasSeq [2]bool // last decision per direction (0 read, 1 write)
	pCont  [2]float64
	pStart [2]float64

	// writesSinceFlush counts writes toward the FlushEvery barrier.
	writesSinceFlush int
}

// NewGenerator creates a generator for p seeded with seed.
func NewGenerator(p Profile, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		p:       p,
		rng:     rand.New(rand.NewSource(seed)),
		prevEnd: -1,
	}
	pages := p.footprintBytes() / pageSize
	if p.ZipfTheta > 0 {
		g.z = newZipf(g.rng, p.ZipfTheta, pages)
	}
	avgPages := float64(p.AvgRequestBytes) / pageSize
	if avgPages < 1 {
		avgPages = 1
	}
	meanRunReqs := float64(p.SeqRunPages) / avgPages
	if meanRunReqs < 1.5 {
		meanRunReqs = 1.5
	}
	q := 1 - 1/meanRunReqs // persistence
	for dir, s := range [2]float64{p.SeqReadRatio, p.SeqWriteRatio} {
		// Stationarity: s = s*q + (1-s)*p0 → p0 = s(1-q)/(1-s).
		p0 := 0.0
		if s < 1 {
			p0 = s * (1 - q) / (1 - s)
		}
		qq := q
		if p0 > 1 { // target too high for chosen persistence; fall back
			p0 = s
			qq = s
		}
		g.pCont[dir] = qq
		g.pStart[dir] = p0
	}
	return g, nil
}

// Next returns the next request.
//
// Every extra random draw is gated on its knob being nonzero, so profiles
// without TRIM/flush/FUA consume the random stream exactly as before and
// stay bit-identical to their golden traces.
func (g *Generator) Next() trace.Request {
	p := g.p

	// A pending flush barrier preempts the next request: databases block
	// on fsync before issuing more I/O.
	if p.FlushEvery > 0 && g.writesSinceFlush >= p.FlushEvery {
		g.writesSinceFlush = 0
		g.clock += int64(g.rng.ExpFloat64() * float64(p.MeanInterarrival))
		return trace.Request{Arrival: g.clock, Op: trace.OpFlush}
	}

	// TRIM decision next: discards are their own request class, not reads
	// or writes, so they bypass the direction Markov chains entirely.
	if p.TrimRatio > 0 && g.rng.Float64() < p.TrimRatio {
		return g.nextTrim()
	}

	// Direction first: the sequential continuation decision is
	// per-direction (Table 4 reports seq-read and seq-write fractions).
	write := g.rng.Float64() < p.WriteRatio
	dir := 0
	if write {
		dir = 1
	}

	// Request length: exponential around the mean, quantized to 512 B
	// sectors, at least one sector, capped at 64 pages.
	length := int64(g.rng.ExpFloat64() * float64(p.AvgRequestBytes))
	length = (length + sectorBytes - 1) / sectorBytes * sectorBytes
	if length < sectorBytes {
		length = sectorBytes
	}
	if max := int64(64 * pageSize); length > max {
		length = max
	}

	pSeq := g.pStart[dir]
	if g.wasSeq[dir] {
		pSeq = g.pCont[dir]
	}
	foot := p.footprintBytes()
	seq := g.rng.Float64() < pSeq && g.prevEnd >= 0 && g.prevEnd+length <= foot
	g.wasSeq[dir] = seq

	var offset int64
	if seq {
		offset = g.prevEnd
	} else {
		offset = g.randomOffset(length)
	}
	if offset+length > foot {
		offset = foot - length
	}

	op := trace.OpRead
	if write {
		op = trace.OpWrite
		if p.FUAFraction > 0 && g.rng.Float64() < p.FUAFraction {
			op = trace.OpWriteFUA
		}
		g.writesSinceFlush++
	}

	g.clock += int64(g.rng.ExpFloat64() * float64(p.MeanInterarrival))
	req := trace.Request{Arrival: g.clock, Offset: offset, Length: length, Op: op}
	g.prevEnd = req.End()
	return req
}

// nextTrim produces one TRIM request: a page-aligned extent, exponential
// around TrimAvgBytes, at a uniformly random footprint offset (deletions
// have no temporal locality — cold files go first).
func (g *Generator) nextTrim() trace.Request {
	p := g.p
	avg := int64(p.TrimAvgBytes)
	if avg == 0 {
		avg = 16 * int64(p.AvgRequestBytes)
	}
	length := int64(g.rng.ExpFloat64() * float64(avg))
	length = (length + pageSize - 1) / pageSize * pageSize
	if length < pageSize {
		length = pageSize
	}
	foot := p.footprintBytes()
	if length > foot {
		length = foot
	}
	maxStart := (foot - length) / pageSize
	var offset int64
	if maxStart > 0 {
		offset = g.rng.Int63n(maxStart+1) * pageSize
	}
	g.clock += int64(g.rng.ExpFloat64() * float64(p.MeanInterarrival))
	return trace.Request{Arrival: g.clock, Offset: offset, Length: length, Op: trace.OpTrim}
}

// randomOffset picks a page-aligned offset with the profile's locality,
// within the workload's footprint.
func (g *Generator) randomOffset(length int64) int64 {
	pages := g.p.footprintBytes() / pageSize
	maxStart := pages - (length+pageSize-1)/pageSize
	if maxStart <= 0 {
		return 0
	}
	var page int64
	if g.z != nil {
		// Zipf rank → page. Scatter ranks over the address space with a
		// fixed multiplicative hash so hot pages are not all adjacent
		// (adjacency would fake spatial locality).
		rank := g.z.next()
		if g.p.HotFraction > 0 && g.p.HotFraction < 1 {
			hotPages := int64(float64(pages) * g.p.HotFraction)
			if hotPages < 1 {
				hotPages = 1
			}
			if rank < hotPages {
				page = scatter(rank, hotPages)
			} else {
				page = hotPages + scatter(rank-hotPages, pages-hotPages)
				page = page % pages
			}
		} else {
			page = scatter(rank, pages)
		}
	} else {
		page = g.rng.Int63n(pages)
	}
	if page > maxStart {
		page = page % (maxStart + 1)
	}
	return page * pageSize
}

// scatter maps rank ∈ [0,n) to a pseudo-random but fixed page in [0,n).
func scatter(rank, n int64) int64 {
	const mult = 0x9E3779B97F4A7C15
	h := uint64(rank) * mult
	return int64(h % uint64(n))
}

// Generate produces n requests.
func (g *Generator) Generate(n int) []trace.Request {
	out := make([]trace.Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Generate is a convenience wrapper: n requests from profile p with seed.
func Generate(p Profile, n int, seed int64) ([]trace.Request, error) {
	g, err := NewGenerator(p, seed)
	if err != nil {
		return nil, err
	}
	return g.Generate(n), nil
}

// zipf draws ranks 0..n-1 with P(rank=k) ∝ 1/(k+1)^theta using the
// rejection-inversion-free approximation of Gray et al. (the standard
// "zipfian" generator of YCSB). math/rand's Zipf requires s > 1, which
// excludes the theta range used for storage workloads, hence this
// implementation.
type zipf struct {
	rng   *rand.Rand
	n     int64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
	rank1 float64 // 1 + 0.5^theta: draws of u·zetan below it are rank 0 or 1
}

func newZipf(rng *rand.Rand, theta float64, n int64) *zipf {
	if n < 1 {
		n = 1
	}
	z := &zipf{rng: rng, n: n, rank1: 1.0 + math.Pow(0.5, theta)}
	z.zeta2 = zetaStatic(2, theta)
	z.zetan = zetaApprox(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zetaStatic(n int64, theta float64) float64 {
	var sum float64
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// zetaApprox computes the generalized harmonic number H_{n,theta}. For the
// large n used here (millions of pages), the integral approximation is
// accurate and O(1); for small n, the exact sum is used.
func zetaApprox(n int64, theta float64) float64 {
	if n <= 10000 {
		return zetaStatic(n, theta)
	}
	head := zetaStatic(10000, theta)
	// ∫_{10000}^{n} x^-theta dx
	tail := (math.Pow(float64(n), 1-theta) - math.Pow(10000, 1-theta)) / (1 - theta)
	return head + tail
}

func (z *zipf) next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	r := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}
