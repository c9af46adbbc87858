package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/ftl"
	"repro/internal/obs/live"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Device shapes the workloads run on, as named constants (a literal channel
// count would bake a device shape into a call site).
const (
	serialChannels = 1
	serialDies     = 1
	wideChannels   = 4
	wideDies       = 2
)

const (
	// deviceBytes is the simulated capacity of every workload.
	deviceBytes = 512 << 20
	// streamBatch is Options.StreamBatch; warmupRequests (= ResetAfterWarmup)
	// is a multiple of it so the warm-up ends exactly on a batch boundary.
	streamBatch    = sim.DefaultStreamBatch
	warmupRequests = 8 * streamBatch
	// defaultSeed is the seed whose traces are pinned by SHA-256 and cached.
	defaultSeed = 1
	// seqSpanPages is the request length of the seqread synthetic.
	seqSpanPages = 8
)

// source is how a workload's requests are produced.
type source int

const (
	fromProfile source = iota // internal/workload generator
	randRead                  // uniform random single-page reads
	seqRead                   // sequential multi-page reads
)

// spec is one benchmark workload. Everything here is a constant of the
// benchmark: no value is calibrated at run time.
type spec struct {
	Name    string
	Source  source
	Profile func() workload.Profile // fromProfile only
	// Measured is the number of requests after the warm-up prefix.
	Measured int64
	// InterarrivalNS is the fixed arrival spacing of a synthetic source;
	// profile sources carry the profile's own exponential arrivals.
	InterarrivalNS int64
	// UtilMin and UtilMax bound the mean channel utilisation a synthetic
	// source must produce: loaded enough that requests queue, not so loaded
	// that the backlog grows and response time measures the run's length.
	UtilMin, UtilMax float64
	Channels, Dies   int
	QD               int
	Shards           int
	Clients          int
	// SHA256 pins the default-seed trace file.
	SHA256 string
}

// synthetic reports whether the benchmark makes the requests itself rather
// than a workload profile. The synthetic sources issue only reads, at an
// arrival spacing of the benchmark's choosing, so the write-amplification and
// utilisation checks apply to them.
func (s spec) synthetic() bool { return s.Source != fromProfile }

// records is the trace length: warm-up prefix plus measured requests.
func (s spec) records() int64 { return warmupRequests + s.Measured }

// shardCount is the number of devices the run is spread over.
func (s spec) shardCount() int { return max(s.Shards, 1) }

// specs lists the workloads in the order BENCHMARK.json names them.
func specs() []spec {
	return []spec{
		{
			Name: "fin1", Source: fromProfile, Profile: workload.Financial1,
			Measured: 300_000, Channels: serialChannels, Dies: serialDies, QD: 1,
			SHA256: "6916e9faa661b77011f2f43b1fef1bbd515a09b624b931e880069d7332e03df9",
		},
		{
			// Eight requests in flight over eight dies collide: the closed
			// loop saturates at a utilisation of 0.43, so the window sits
			// below the 0.5-0.8 a single die allows.
			Name: "randread", Source: randRead, InterarrivalNS: 18_000, UtilMin: 0.3, UtilMax: 0.4,
			Measured: 2_000_000, Channels: wideChannels, Dies: wideDies, QD: 8,
			SHA256: "185c8d4afaf19822aa005a4ed0c7f939c2d18197d6ba91f5d968c73614955708",
		},
		{
			Name: "seqread", Source: seqRead, InterarrivalNS: 310_000, UtilMin: 0.5, UtilMax: 0.8,
			Measured: 900_000, Channels: serialChannels, Dies: serialDies, QD: 1,
			SHA256: "af84dcb6a5646ccd0643ff637576dbd77abe2bc90b9ecc5742d18f97cad770d0",
		},
		{
			Name: "mixed2", Source: fromProfile, Profile: workload.Financial2,
			Measured: 1_000_000, Channels: wideChannels, Dies: wideDies, QD: 8,
			Shards: 2, Clients: 2,
			SHA256: "297026135d90cf7a4e6d9105522f701b2137e7836465405741cdefaffd1475ad",
		},
	}
}

func specByName(name string) (spec, error) {
	for _, s := range specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// options is the sim.Run configuration of one replay. The program under test
// sees the trace file and the device shape, nothing of how the trace was
// made: the preconditioning footprint comes from the file header's MaxEnd.
func (s spec) options(it trace.Iterator, plane *live.Plane) sim.Options {
	return sim.Options{
		Scheme:           sim.SchemeTPFTL,
		Profile:          workload.Profile{Name: s.Name, AddressSpace: deviceBytes},
		TraceStream:      it,
		StreamBatch:      streamBatch,
		Channels:         s.Channels,
		Dies:             s.Dies,
		Shards:           s.Shards,
		Clients:          s.Clients,
		QueueDepth:       s.QD,
		Precondition:     1.0,
		ResetAfterWarmup: warmupRequests,
		Telemetry:        plane,
	}
}

// generate streams the workload's requests for seed into emit, one record at
// a time; the trace never exists as a slice. Every record carries a non-zero
// arrival stamp no earlier than its predecessor's.
func (s spec) generate(seed int64, emit func(trace.Request) error) error {
	const pageBytes = ftl.DefaultPageBytes
	var next func() trace.Request
	switch s.Source {
	case fromProfile:
		g, err := workload.NewGenerator(s.Profile().Scale(deviceBytes), seed)
		if err != nil {
			return err
		}
		next = g.Next
	case randRead:
		rng := rand.New(rand.NewSource(seed))
		pages := int64(deviceBytes) * 3 / 4 / pageBytes
		var clock int64
		next = func() trace.Request {
			clock += s.InterarrivalNS
			return trace.Request{Arrival: clock, Offset: rng.Int63n(pages) * pageBytes, Length: pageBytes}
		}
	case seqRead:
		// The seed picks where the sweep starts; the sweep itself has no
		// random part. Starts are span-aligned, so that no request straddles
		// two translation pages whatever the seed.
		sweep := int64(deviceBytes)*3/4/pageBytes - seqSpanPages
		page := rand.New(rand.NewSource(seed)).Int63n(sweep/seqSpanPages) * seqSpanPages
		var clock int64
		next = func() trace.Request {
			clock += s.InterarrivalNS
			r := trace.Request{Arrival: clock, Offset: page * pageBytes, Length: seqSpanPages * pageBytes}
			page = (page + seqSpanPages) % sweep
			return r
		}
	default:
		return fmt.Errorf("workload %s: unknown source %d", s.Name, s.Source)
	}
	var prev int64
	for i := int64(0); i < s.records(); i++ {
		r := next()
		if r.Arrival <= 0 || r.Arrival < prev {
			return fmt.Errorf("workload %s: record %d arrival %d after %d: stamps must be non-zero and non-decreasing", s.Name, i, r.Arrival, prev)
		}
		prev = r.Arrival
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// tracePath is the cache key: workload, seed and size.
func (s spec) tracePath(dir string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-s%d-n%d.ftr", s.Name, seed, s.records()))
}

// ensureTrace returns the binary trace file of (s, seed) under dir and its
// SHA-256. The default seed's trace is cached and its hash pinned: a cached
// copy is reused only if it hashes to the pin, and a freshly generated one
// that does not means the generator changed what the benchmark measures,
// which is an error. Other seeds are generated afresh each time (the caller
// removes them), so nothing but the pin vouches for a cached file.
func ensureTrace(s spec, seed int64, dir string) (path, sum string, err error) {
	path = s.tracePath(dir, seed)
	if seed == defaultSeed {
		if sum, err = fileSHA256(path); err == nil && sum == s.SHA256 {
			return path, sum, nil
		}
	}
	if err := writeTraceFile(s, seed, path); err != nil {
		return "", "", fmt.Errorf("generating %s: %w", path, err)
	}
	if sum, err = fileSHA256(path); err != nil {
		return "", "", err
	}
	if seed == defaultSeed && sum != s.SHA256 {
		return "", "", fmt.Errorf("input drift: %s has SHA-256 %s, pinned %s", path, sum, s.SHA256)
	}
	return path, sum, nil
}

func writeTraceFile(s spec, seed int64, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	defer tmp.Close()
	bw, err := trace.NewBinaryWriter(tmp, trace.BinaryHeader{PageBytes: ftl.DefaultPageBytes})
	if err != nil {
		return err
	}
	if err := s.generate(seed, bw.WriteRequest); err != nil {
		return err
	}
	if err := bw.Finish(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
