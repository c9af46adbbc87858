// Package tpftl is the public API of this repository: a trace-driven SSD
// simulator and a family of demand-based page-level FTLs reproducing
//
//	Zhou, Wu, Huang, He, Zhou, Xie.
//	"An Efficient Page-level FTL to Optimize Address Translation in Flash
//	Memory", EuroSys 2015.
//
// The package re-exports the building blocks:
//
//   - NewDevice builds a simulated SSD (flash chip + block management +
//     garbage collection) around any Translator policy.
//   - NewTranslator constructs the paper's schemes by name: TPFTL (the
//     paper's contribution), DFTL, S-FTL, CDFTL, ZFTL and the optimal FTL;
//     NewBlockDevice/NewHybridDevice/NewFASTDevice build the §2.1
//     block-level and log-buffer hybrid devices.
//   - Run executes a complete experiment: build, format, precondition,
//     replay a workload, collect the paper's metrics. It has one request
//     path — request source, host, admission queue, device — whatever the
//     source (generated, parsed trace, streamed file) and the shard count.
//   - Financial1/Financial2/MSRts/MSRsrc return workload generators
//     calibrated to the paper's Table 4; ParseTrace replays real SPC/MSR
//     trace files.
//
// See examples/ for runnable walkthroughs and cmd/experiments for the full
// paper-evaluation harness.
package tpftl

import (
	"io"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/ftl/blockftl"
	"repro/internal/ftl/fast"
	"repro/internal/ftl/hybrid"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported types. The aliases keep one canonical definition internally
// while giving users a single import.
type (
	// Scheme names an FTL policy ("TPFTL", "DFTL", "S-FTL", "CDFTL",
	// "Optimal").
	Scheme = sim.Scheme
	// Options configures one simulation run.
	Options = sim.Options
	// Result is a run's outcome: metrics plus cache samples.
	Result = sim.Result
	// ShardRun is one shard's slice of a run's outcome; a one-device run
	// has exactly one.
	ShardRun = sim.ShardRun
	// Metrics are the paper's counters and derived measures.
	Metrics = ftl.Metrics
	// Device is a simulated SSD.
	Device = ftl.Device
	// DeviceConfig describes the simulated SSD (geometry, latencies,
	// over-provisioning, cache budget).
	DeviceConfig = ftl.Config
	// Translator is the mapping-cache policy interface; implement it to
	// plug a new FTL scheme into the device.
	Translator = ftl.Translator
	// TPFTLConfig parameterizes the TPFTL scheme, including the paper's
	// four technique toggles for ablation studies.
	TPFTLConfig = core.Config
	// Profile is a synthetic workload description.
	Profile = workload.Profile
	// Request is one block-level I/O request.
	Request = trace.Request
	// Op is the request kind carried by a Request.
	Op = trace.Op
	// TraceStats summarizes a request stream (Table 4's columns).
	TraceStats = trace.Stats
	// ExpConfig scales the paper-evaluation experiment suite.
	ExpConfig = sim.ExpConfig
	// FaultPlan is an injectable flash fault schedule: probability faults,
	// scheduled per-attempt faults and a power cut.
	FaultPlan = flash.FaultPlan
	// FaultError is one injected flash fault.
	FaultError = flash.FaultError
	// FaultStats counts what a fault plan injected.
	FaultStats = flash.FaultStats
	// CrashOptions configures a crash-recovery property run.
	CrashOptions = sim.CrashOptions
	// CrashReport aggregates the verified power-cut points of a RunCrash.
	CrashReport = sim.CrashReport
	// CutResult is one verified power-cut point.
	CutResult = sim.CutResult
	// RecoveredState is the mapping rebuilt by a post-crash OOB scan.
	RecoveredState = ftl.RecoveredState
)

// ErrPowerCut is returned by every flash operation once a fault plan's power
// cut has fired.
var ErrPowerCut = flash.ErrPowerCut

// The paper's schemes (§2.2 related work included).
const (
	TPFTL   = sim.SchemeTPFTL
	DFTL    = sim.SchemeDFTL
	SFTL    = sim.SchemeSFTL
	CDFTL   = sim.SchemeCDFTL
	ZFTL    = sim.SchemeZFTL
	Optimal = sim.SchemeOptimal
)

// Request kinds (host-interface op codes).
const (
	OpRead     = trace.OpRead
	OpWrite    = trace.OpWrite
	OpWriteFUA = trace.OpWriteFUA
	OpTrim     = trace.OpTrim
	OpFlush    = trace.OpFlush
)

// Run executes one simulation run.
func Run(o Options) (*Result, error) { return sim.Run(o) }

// RunCrash replays a seeded workload with power cut at chosen chip-op
// indexes and verifies that the mapping recovered from on-flash OOB
// metadata matches the device's last acknowledged state (see sim.RunCrash).
func RunCrash(o CrashOptions) (*CrashReport, error) { return sim.RunCrash(o) }

// ParseFaultPlan parses the CLI fault-plan syntax, e.g. "cut=12000" or
// "read=1e-4,program=1e-5,seed=7" (see flash.ParseFaultPlan).
func ParseFaultPlan(spec string) (*FaultPlan, error) { return flash.ParseFaultPlan(spec) }

// NewDevice builds a simulated SSD around the given policy. Call Format
// before serving requests.
func NewDevice(cfg DeviceConfig, tr Translator) (*Device, error) {
	return ftl.NewDevice(cfg, tr)
}

// DefaultDeviceConfig returns the paper's SSD parameters (Table 3) for a
// logical capacity.
func DefaultDeviceConfig(logicalBytes int64) DeviceConfig {
	return ftl.DefaultConfig(logicalBytes)
}

// NewTranslator constructs a scheme by name. cacheBytes is the mapping
// cache budget; logicalPages sizes the optimal FTL's table; tpftlCfg
// optionally overrides the TPFTL configuration (nil selects the complete
// "rsbc" TPFTL).
func NewTranslator(s Scheme, cacheBytes, logicalPages int64, tpftlCfg *TPFTLConfig) (Translator, error) {
	return sim.NewTranslator(s, cacheBytes, logicalPages, tpftlCfg)
}

// NewTPFTL returns the paper's complete TPFTL with the given cache budget.
func NewTPFTL(cacheBytes int64) *core.FTL {
	return core.New(core.DefaultConfig(cacheBytes))
}

// DefaultCacheBytes returns the paper's cache-budget convention for a
// device size (the block-level mapping table size: 8 KB per 512 MB).
func DefaultCacheBytes(logicalBytes int64) int64 {
	return ftl.DefaultCacheBytes(logicalBytes)
}

// Workload surrogates calibrated to the paper's Table 4.
func Financial1() Profile { return workload.Financial1() }
func Financial2() Profile { return workload.Financial2() }
func MSRts() Profile      { return workload.MSRts() }
func MSRsrc() Profile     { return workload.MSRsrc() }

// Profiles returns the four paper workloads in evaluation order.
func Profiles() []Profile { return workload.DefaultProfiles() }

// GenerateWorkload produces n requests from a profile.
func GenerateWorkload(p Profile, n int, seed int64) ([]Request, error) {
	return workload.Generate(p, n, seed)
}

// ParseTrace reads a trace file. Formats: "spc" (UMass Financial), "msr"
// (MSR Cambridge CSV), "native" (this repository's CSV).
func ParseTrace(r io.Reader, format string) ([]Request, error) {
	f, err := trace.FormatByName(format)
	if err != nil {
		return nil, err
	}
	return trace.Parse(r, f)
}

// WriteTrace writes requests in the native CSV format.
func WriteTrace(w io.Writer, reqs []Request) error {
	return trace.WriteNative(w, reqs)
}

// WriteTraceFormat writes requests in the named format ("native", "spc" or
// "msr").
func WriteTraceFormat(w io.Writer, reqs []Request, format string) error {
	f, err := trace.FormatByName(format)
	if err != nil {
		return err
	}
	return trace.Write(w, reqs, f)
}

// SummarizeTrace computes Table 4-style statistics over a request stream.
func SummarizeTrace(reqs []Request) TraceStats {
	return trace.Summarize(reqs)
}

// NewBlockDevice builds a block-level FTL device — the coarse end of the
// §2.1 mapping taxonomy; its tiny mapping table defines the paper's cache
// budget convention.
func NewBlockDevice(cfg DeviceConfig) (*blockftl.Device, error) {
	return blockftl.New(cfg)
}

// NewHybridDevice builds a BAST-style log-buffer hybrid FTL device
// (§2.1's middle ground) with the given log-block pool size (0 = default).
func NewHybridDevice(cfg DeviceConfig, logBlocks int) (*hybrid.Device, error) {
	return hybrid.New(hybrid.Config{Device: cfg, LogBlocks: logBlocks})
}

// NewFASTDevice builds a FAST-style fully-associative log-buffer hybrid
// device (citation [23]'s lineage) with the given shared log pool size
// (0 = default).
func NewFASTDevice(cfg DeviceConfig, logBlocks int) (*fast.Device, error) {
	return fast.New(fast.Config{Device: cfg, LogBlocks: logBlocks})
}

// NewDataBuffer wraps a device with a CFLRU data buffer of the given page
// capacity (§2.1's data-buffer half of the internal RAM).
func NewDataBuffer(dev *Device, pages int) (*buffer.Buffered, error) {
	return buffer.New(dev, buffer.Config{Pages: pages})
}
