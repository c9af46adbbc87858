package flash

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// ErrPowerCut is the error every flash operation returns once a FaultPlan's
// power cut has fired (and, after that, forever): from the chip's point of
// view the supply rail dropped mid-workload and the op never happened. The
// chip state is frozen at the last completed operation; a subsequent
// RecoverMapping models the mount-time OOB scan after power returns.
var ErrPowerCut = errors.New("flash: power cut")

// FaultError is an injected flash fault — the simulator's stand-in for a
// read disturb, a program failure or an erase failure. Transient faults
// succeed when the operation is retried (the FTL's bounded-retry path);
// non-transient ones persist and must surface to the caller.
type FaultError struct {
	Op        string
	Page      PPN
	Blk       BlockID
	Transient bool
}

func (e *FaultError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	if e.Page >= 0 {
		return fmt.Sprintf("flash: injected %s %s fault at ppn %d", kind, e.Op, e.Page)
	}
	return fmt.Sprintf("flash: injected %s %s fault at block %d", kind, e.Op, e.Blk)
}

// FaultPlan describes an injectable fault schedule for a Chip. All decisions
// are driven by the plan's own seeded RNG and deterministic op counters, so a
// failing run reproduces bit-for-bit from (workload seed, plan).
//
// Three independent mechanisms compose:
//
//   - probability faults: each read/program/erase fails transiently with the
//     configured probability;
//   - scheduled faults: FailAt lists exact per-kind attempt indexes
//     (1-based, counting from when the plan is armed) that fail transiently;
//   - power cut: CutAtOp freezes the chip when its global attempt counter
//     (reads+programs+erases, 1-based from arming) reaches the given index —
//     that operation and every later one fail with ErrPowerCut and no state
//     changes.
type FaultPlan struct {
	// Seed drives the probability draws (0 is treated as 1).
	Seed int64

	// ReadProb, ProgramProb, EraseProb are per-operation transient fault
	// probabilities in [0,1].
	ReadProb    float64
	ProgramProb float64
	EraseProb   float64

	// FailAt schedules transient faults at exact per-kind attempt indexes,
	// keyed by op name ("read", "program", "erase"). Indexes are 1-based
	// and count every attempt of that kind after the plan is armed,
	// including attempts that themselves fail.
	FailAt map[string][]int64

	// CutAtOp, when > 0, cuts power at the CutAtOp-th chip operation after
	// the plan is armed (counting all kinds, 1-based).
	CutAtOp int64
}

// FaultStats counts what a plan actually injected.
type FaultStats struct {
	InjectedReads    int64
	InjectedPrograms int64
	InjectedErases   int64
	PowerCut         bool
	CutOp            int64 // global op index at which the cut fired
}

// Injected returns the total number of injected transient faults.
func (s FaultStats) Injected() int64 {
	return s.InjectedReads + s.InjectedPrograms + s.InjectedErases
}

// faultOps are the operation kinds a plan can fail, in the order a plan is
// rendered.
var faultOps = []string{"read", "program", "erase"}

// faultState is the armed, mutable form of a plan inside a Chip.
type faultState struct {
	plan     FaultPlan
	rng      *rand.Rand
	opCount  int64            // all ops attempted since arming
	attempts map[string]int64 // per-kind attempt counters
	failAt   map[string]map[int64]bool
	cut      bool
	stats    FaultStats
}

func newFaultState(p FaultPlan) *faultState {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	fs := &faultState{
		plan:     p,
		rng:      rand.New(rand.NewSource(seed)),
		attempts: make(map[string]int64, 3),
		failAt:   make(map[string]map[int64]bool, len(p.FailAt)),
	}
	for _, op := range faultOps {
		set := make(map[int64]bool, len(p.FailAt[op]))
		for _, i := range p.FailAt[op] {
			set[i] = true
		}
		fs.failAt[op] = set
	}
	return fs
}

// inject decides the fate of one attempted operation. It returns nil when
// the op may proceed.
func (fs *faultState) inject(op string, page PPN, blk BlockID) error {
	if fs.cut {
		return ErrPowerCut
	}
	fs.opCount++
	if fs.plan.CutAtOp > 0 && fs.opCount >= fs.plan.CutAtOp {
		fs.cut = true
		fs.stats.PowerCut = true
		fs.stats.CutOp = fs.opCount
		return ErrPowerCut
	}
	fs.attempts[op]++
	fail := fs.failAt[op][fs.attempts[op]]
	var prob float64
	switch op {
	case "read":
		prob = fs.plan.ReadProb
	case "program":
		prob = fs.plan.ProgramProb
	case "erase":
		prob = fs.plan.EraseProb
	}
	if !fail && prob > 0 && fs.rng.Float64() < prob {
		fail = true
	}
	if !fail {
		return nil
	}
	switch op {
	case "read":
		fs.stats.InjectedReads++
	case "program":
		fs.stats.InjectedPrograms++
	case "erase":
		fs.stats.InjectedErases++
	}
	return &FaultError{Op: op, Page: page, Blk: blk, Transient: true}
}

// SetFaultPlan arms (or, with nil, disarms) a fault plan on the chip. Op
// counters start from zero at arming, so CutAtOp and FailAt indexes are
// relative to this call — arm after Format to leave the pre-fill unfaulted.
func (c *Chip) SetFaultPlan(p *FaultPlan) {
	if p == nil {
		c.faults = nil
		return
	}
	c.faults = newFaultState(*p)
}

// FaultStats returns what the armed plan injected so far.
func (c *Chip) FaultStats() FaultStats {
	if c.faults == nil {
		return FaultStats{}
	}
	return c.faults.stats
}

// PowerCut reports whether the chip's power has been cut (by plan or by
// CutPower). A cut chip rejects every operation with ErrPowerCut; only the
// state inspection used by recovery (State, MetaOf) keeps working.
func (c *Chip) PowerCut() bool {
	return c.faults != nil && c.faults.cut
}

// CutPower cuts power immediately, regardless of any armed plan.
func (c *Chip) CutPower() {
	if c.faults == nil {
		c.faults = newFaultState(FaultPlan{})
	}
	if !c.faults.cut {
		c.faults.cut = true
		c.faults.stats.PowerCut = true
		c.faults.stats.CutOp = c.faults.opCount
	}
}

// OpCount returns the number of chip operations attempted since the fault
// plan was armed (0 when no plan is armed). The crash harness uses it to
// size the cut-point space.
func (c *Chip) OpCount() int64 {
	if c.faults == nil {
		return 0
	}
	return c.faults.opCount
}

// ParseFaultPlan parses the CLI fault-plan syntax: a comma-separated list of
// key=value pairs.
//
//	cut=N        power cut at the N-th op after arming
//	seed=S       RNG seed for probability faults
//	read=P       transient read-fault probability
//	program=P    transient program-fault probability
//	erase=P      transient erase-fault probability
//	readat=I;J   transient faults at exact read attempts I and J (";"-separated)
//	programat=…  likewise for programs
//	eraseat=…    likewise for erases
//
// Example: "cut=12000" or "read=1e-4,program=1e-5,seed=7".
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	p := &FaultPlan{}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("flash: empty fault spec")
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("flash: fault spec %q: want key=value", field)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		switch key {
		case "cut", "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("flash: fault spec %s=%q: %v", key, val, err)
			}
			if key == "cut" {
				p.CutAtOp = n
			} else {
				p.Seed = n
			}
		case "read", "program", "erase":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("flash: fault spec %s=%q: want probability in [0,1]", key, val)
			}
			switch key {
			case "read":
				p.ReadProb = f
			case "program":
				p.ProgramProb = f
			case "erase":
				p.EraseProb = f
			}
		case "readat", "programat", "eraseat":
			op := strings.TrimSuffix(key, "at")
			var idxs []int64
			for _, s := range strings.Split(val, ";") {
				n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("flash: fault spec %s=%q: want positive attempt indexes", key, val)
				}
				idxs = append(idxs, n)
			}
			sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
			if p.FailAt == nil {
				p.FailAt = make(map[string][]int64)
			}
			p.FailAt[op] = idxs
		default:
			return nil, fmt.Errorf("flash: fault spec: unknown key %q", key)
		}
	}
	return p, nil
}

// String renders the plan in ParseFaultPlan syntax.
func (p *FaultPlan) String() string {
	var parts []string
	if p.CutAtOp > 0 {
		parts = append(parts, fmt.Sprintf("cut=%d", p.CutAtOp))
	}
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	if p.ReadProb > 0 {
		parts = append(parts, fmt.Sprintf("read=%g", p.ReadProb))
	}
	if p.ProgramProb > 0 {
		parts = append(parts, fmt.Sprintf("program=%g", p.ProgramProb))
	}
	if p.EraseProb > 0 {
		parts = append(parts, fmt.Sprintf("erase=%g", p.EraseProb))
	}
	for _, op := range faultOps {
		if idxs := p.FailAt[op]; len(idxs) > 0 {
			strs := make([]string, len(idxs))
			for i, n := range idxs {
				strs[i] = strconv.FormatInt(n, 10)
			}
			parts = append(parts, op+"at="+strings.Join(strs, ";"))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}
