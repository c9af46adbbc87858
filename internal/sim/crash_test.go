package sim

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/trace"
	"repro/internal/workload"
)

// crashOptions returns a fast crash-run configuration: a 16 MB device keeps
// each replay cheap enough to test hundreds of cut points.
func crashOptions(s Scheme) CrashOptions {
	return CrashOptions{
		Scheme:       s,
		Profile:      workload.Financial1(),
		AddressSpace: 16 << 20,
		Requests:     1_200,
		Seed:         42,
	}
}

// TestCrashRecoveryProperty is the tentpole property: across all six
// demand-based schemes and 400+ random power-cut points, the mapping rebuilt
// from OOB metadata alone must equal the live state at the cut and preserve
// every acknowledged write. RunCrash fails loudly on any divergence.
func TestCrashRecoveryProperty(t *testing.T) {
	cuts := 70
	if testing.Short() {
		cuts = 5
	}
	for _, s := range []Scheme{SchemeTPFTL, SchemeDFTL, SchemeSFTL, SchemeCDFTL, SchemeZFTL, SchemeOptimal} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			o := crashOptions(s)
			o.Cuts = cuts
			rep, err := RunCrash(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Cuts) != cuts {
				t.Fatalf("verified %d cut points, want %d", len(rep.Cuts), cuts)
			}
			sawAcked := false
			for _, c := range rep.Cuts {
				if c.ScannedPages == 0 {
					t.Fatalf("cut at op %d scanned no pages", c.CutOp)
				}
				if c.AckedPages > 0 {
					sawAcked = true
				}
			}
			if !sawAcked {
				t.Fatalf("no cut point verified any acknowledged writes; property is vacuous")
			}
		})
	}
}

// TestCrashRecoveryExplicitCut pins one early and one late cut point so the
// boundary cases (cut during the very first ops; cut after the workload's
// last op never fires) stay covered without randomness.
func TestCrashRecoveryExplicitCut(t *testing.T) {
	for _, cut := range []int64{1, 2, 1 << 62} {
		o := crashOptions(SchemeTPFTL)
		o.CutAtOp = cut
		rep, err := RunCrash(o)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(rep.Cuts) != 1 {
			t.Fatalf("cut=%d: %d results", cut, len(rep.Cuts))
		}
	}
}

// TestCrashRecoveryParallelBackend cuts power on a multi-channel device:
// recovery is a pure function of the chip's page state, so the OOB scan must
// rebuild the mapping no matter how blocks were striped across dies.
func TestCrashRecoveryParallelBackend(t *testing.T) {
	cuts := 20
	if testing.Short() {
		cuts = 3
	}
	o := crashOptions(SchemeTPFTL)
	o.Channels = 4
	o.Dies = 2
	o.Cuts = cuts
	rep, err := RunCrash(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cuts) != cuts {
		t.Fatalf("verified %d cut points, want %d", len(rep.Cuts), cuts)
	}
}

// TestCrashRecoveryWithTransientFaults layers probabilistic transient
// faults on the road to the power cut: retries must not corrupt the state
// the recovery scan is later checked against.
func TestCrashRecoveryWithTransientFaults(t *testing.T) {
	o := crashOptions(SchemeTPFTL)
	o.Cuts = 10
	o.FaultProb = 0.002
	rep, err := RunCrash(o)
	if err != nil {
		t.Fatal(err)
	}
	var injected int64
	for _, c := range rep.Cuts {
		injected += c.Injected
	}
	if injected == 0 {
		t.Fatalf("no transient faults injected across %d cut runs; raise FaultProb", len(rep.Cuts))
	}
}

// TestRunWithTransientFaults drives the plain harness with probability
// faults: the device must absorb every one through bounded retries, account
// for them in the metrics, and still finish consistent (Run's built-in
// post-run check).
func TestRunWithTransientFaults(t *testing.T) {
	r, err := Run(Options{
		Scheme:   SchemeTPFTL,
		Profile:  smallProfile(workload.Financial1()),
		Requests: 5_000,
		Seed:     3,
		Faults: &flash.FaultPlan{
			Seed:        11,
			ReadProb:    0.001,
			ProgramProb: 0.001,
			EraseProb:   0.001,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.M.InjectedFaults == 0 {
		t.Fatalf("no faults observed; plan was not armed")
	}
	if r.M.FaultRetries != r.M.InjectedFaults {
		t.Fatalf("retries %d != injected %d: some transient faults were not retried", r.M.FaultRetries, r.M.InjectedFaults)
	}
}

// FuzzCrashRecovery lets the fuzzer explore (workload seed, cut point)
// pairs; go test runs the seed corpus as a regression suite.
func FuzzCrashRecovery(f *testing.F) {
	f.Add(int64(1), int64(50))
	f.Add(int64(2), int64(5_000))
	f.Add(int64(3), int64(0))
	f.Fuzz(func(t *testing.T, seed, cut int64) {
		o := crashOptions(SchemeTPFTL)
		o.Requests = 300
		o.Seed = seed
		o.Cuts = 1
		if cut > 0 {
			o.CutAtOp = cut
		}
		if _, err := RunCrash(o); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCrashRecoveryTrimFlush replays the host-interface profiles —
// fstrim-heavy (discards interleaved with I/O) and database-fsync (flush
// barriers plus FUA writes) — through the crash harness on all six
// demand-based schemes. Beyond the baseline (a)/(b) contracts, every cut point now also
// verifies (c) no trimmed page resurrects and (d) every acknowledged flush
// left the mapping cache clean; the assertions below make sure those checks
// actually fired (non-vacuous trim and flush coverage).
func TestCrashRecoveryTrimFlush(t *testing.T) {
	cuts := 25
	if testing.Short() {
		cuts = 4
	}
	for _, s := range []Scheme{SchemeTPFTL, SchemeDFTL, SchemeSFTL, SchemeCDFTL, SchemeZFTL, SchemeOptimal} {
		for _, p := range []workload.Profile{workload.FstrimHeavy(), workload.DatabaseFsync()} {
			s, p := s, p
			t.Run(string(s)+"/"+p.Name, func(t *testing.T) {
				t.Parallel()
				o := crashOptions(s)
				o.Profile = p
				o.Cuts = cuts
				rep, err := RunCrash(o)
				if err != nil {
					t.Fatal(err)
				}
				var trims, flushes int
				for _, c := range rep.Cuts {
					trims += c.TrimmedPages
					flushes += c.FlushBarriers
				}
				switch p.Name {
				case "fstrim-heavy":
					if trims == 0 {
						t.Fatal("no trimmed pages verified; discard contract is vacuous")
					}
				case "database-fsync":
					if flushes == 0 {
						t.Fatal("no flush barriers verified; flush contract is vacuous")
					}
				}
			})
		}
	}
}

// FuzzCrashTrimFlush lets the fuzzer pick an arbitrary interleaving of
// writes, FUA writes, trims, flushes and reads (two bytes per request: op
// selector and page selector) plus a cut point, and replays it through
// RunCrash via CrashOptions.Trace. The seed corpus doubles as a regression
// suite for the trim-resurrection and flush-ack contracts.
func FuzzCrashTrimFlush(f *testing.F) {
	f.Add([]byte{0x01, 0x10, 0x05, 0x10, 0x01, 0x20, 0x06, 0x00}, int64(20))
	f.Add([]byte{0x01, 0x08, 0x01, 0x09, 0x05, 0x08, 0x04, 0x08}, int64(0))
	f.Add([]byte{0x07, 0x01, 0x06, 0x00, 0x05, 0x01, 0x06, 0x00}, int64(35))
	f.Fuzz(func(t *testing.T, ops []byte, cut int64) {
		const space = 4 << 20
		const pageBytes = 4096
		pages := int64(space / pageBytes)
		var reqs []trace.Request
		arrival := int64(0)
		for i := 0; i+1 < len(ops) && len(reqs) < 160; i += 2 {
			arrival += 10_000
			lpn := int64(ops[i+1]) % pages
			req := trace.Request{Arrival: arrival, Offset: lpn * pageBytes, Length: pageBytes}
			switch ops[i] % 8 {
			case 0, 1, 2:
				req.Op = trace.OpWrite
			case 3:
				req.Op = trace.OpWriteFUA
			case 4:
				req.Op = trace.OpRead
			case 5:
				req.Op = trace.OpTrim
				req.Length = 4 * pageBytes // multi-page discard
			case 6:
				req.Op = trace.OpFlush
				req.Offset, req.Length = 0, 0
			case 7:
				req.Op = trace.OpTrim
			}
			reqs = append(reqs, req)
		}
		// A flush on an idle device is free: an all-flush trace performs no
		// chip ops, leaving RunCrash nothing to cut. Reads, writes and trims
		// all touch the chip.
		effectful := false
		for _, r := range reqs {
			if r.Op != trace.OpFlush {
				effectful = true
				break
			}
		}
		if !effectful {
			return
		}
		o := CrashOptions{
			Scheme:       SchemeTPFTL,
			AddressSpace: space,
			Trace:        reqs,
			Cuts:         1,
			Seed:         9,
		}
		if cut > 0 {
			o.CutAtOp = cut
		}
		if _, err := RunCrash(o); err != nil {
			t.Fatal(err)
		}
	})
}
