package host

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/cacheline"
	"repro/internal/ftl"
	"repro/internal/obs/live"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// Options configures how every shard admits requests against its simulated
// backend. The zero value is the serial-compatible closed loop at depth 1.
type Options struct {
	// QueueDepth bounds the simulated in-flight requests per shard
	// (closed loop). 0 selects 1, the serial-compatibility default, unless
	// OpenLoop is set.
	QueueDepth int
	// OpenLoop admits every request at its arrival time instead of waiting
	// for a queue slot; QueueDepth is ignored.
	OpenLoop bool
}

func (o Options) depth() int {
	if o.OpenLoop {
		return 0
	}
	if o.QueueDepth <= 0 {
		return 1
	}
	return o.QueueDepth
}

// Host owns the per-shard devices and routes block requests to them.
// Construct with New, then Replay a trace (or ReplayStream an iterator)
// deterministically.
type Host struct {
	lay    Layout
	opt    Options
	shards []*shard
}

// shard is one slice of the LPN space: a private device plus the admission
// queue of its serial request loop. Everything here is touched only by the
// goroutine serving the shard (or, between runs, by the host's caller), never
// concurrently.
type shard struct {
	id  int
	dev *ftl.Device

	adm ssd.Admitter // this run's admission queue
	err error

	// pull is the one-shard host's pull buffer, kept across replays so a
	// warm-up and the measured phase share it.
	pull []trace.Request

	// cell is the shard's live-telemetry cell (nil when the plane is off).
	// Queue stats are published into it once per served batch.
	cell *live.Cell
}

// New builds a host over per-shard devices. devs[s] must advertise exactly
// the capacity layout assigns shard s (ShardConfigs produces matching
// configurations).
func New(lay Layout, devs []*ftl.Device, opt Options) (*Host, error) {
	if len(devs) != lay.Shards {
		return nil, fmt.Errorf("host: %d devices for %d shards", len(devs), lay.Shards)
	}
	h := &Host{lay: lay, opt: opt, shards: make([]*shard, lay.Shards)}
	for s, dev := range devs {
		if dev == nil {
			return nil, fmt.Errorf("host: shard %d device is nil", s)
		}
		if got, want := dev.Config().LogicalBytes, lay.ShardBytes(s); got != want {
			return nil, fmt.Errorf("host: shard %d advertises %d B, layout assigns %d B", s, got, want)
		}
		h.shards[s] = cacheline.Isolated(shard{id: s, dev: dev})
	}
	return h, nil
}

// Layout returns the host's LPN→shard map.
func (h *Host) Layout() Layout { return h.lay }

// Device returns shard s's device, for per-shard setup (formatting,
// preconditioning, warming, fault arming) before a run. It must not be
// touched while a replay is running.
func (h *Host) Device(s int) *ftl.Device { return h.shards[s].dev }

// SetLive attaches one live-telemetry cell per shard (cells[s] → shard s;
// nil entries or a nil slice detach). Each shard's device publishes epochs
// and flight-recorder entries into its cell from the goroutine serving the
// shard, which also publishes the admission queue's stats per batch —
// telemetry rides the existing single-writer-per-shard discipline, so
// replays stay bit-for-bit deterministic with the plane on or off.
func (h *Host) SetLive(cells []*live.Cell) {
	for s, sh := range h.shards {
		var c *live.Cell
		if s < len(cells) {
			c = cells[s]
		}
		sh.cell = c
		sh.dev.SetLive(c)
	}
}

// reset starts one run's admission queue. A closed loop at depth 1 starts
// with the device's current clock occupying the single slot, so every request
// is admitted at max(arrival, device idle) — Device.Serve's scalar-clock
// admission — even after preconditioning or a warm-up phase moved the clock;
// deeper queues and open loop start empty. This is the one place that rule
// lives.
func (s *shard) reset(qd int) {
	s.adm = *ssd.NewAdmitter(qd)
	s.err = nil
	if qd == 1 {
		s.adm.Occupy(s.dev.Now())
	}
}

// serveBatch admits a batch of local requests, in order, against the shard's
// queue-depth policy — the one per-batch serve function, run by the caller's
// goroutine on a one-shard host and by the shard's worker otherwise. Logical
// effects apply in call order; only simulated timing overlaps. The first
// device error sticks, carrying the failing request's index in the shard's
// stream; later batches are dropped unserved.
func (s *shard) serveBatch(b []trace.Request) {
	if s.err != nil {
		return
	}
	for i := range b {
		if _, err := s.adm.Admit(s.dev, b[i]); err != nil {
			s.err = fmt.Errorf("shard %d: request %d: %w", s.id, s.adm.Stats().Admitted, err)
			break
		}
	}
	if s.cell != nil {
		st := s.adm.Stats()
		s.cell.SetQueueStats(st.Admitted, st.DepthSum, st.MaxDepth)
	}
}

// ShardResult is one shard's outcome of a run.
type ShardResult struct {
	Shard int
	// M is the shard device's metrics over the run's measured window, with
	// the admission queue's depth stats folded in (only when the admission
	// policy actually queues — depth 1 is the scalar-clock device, which
	// reports none).
	M ftl.Metrics
	// EventHash is the shard scheduler's order-sensitive hash of every
	// flash operation since device creation.
	EventHash uint64
	// Admitted counts the fragments this shard served during the run.
	Admitted int64
	// FS is the shard admission queue's statistics — the same snapshot
	// struct the live telemetry plane publishes per shard, so the ftlsim
	// report table and a live scrape read identical numbers.
	FS ssd.FrontendStats
}

// Outcome aggregates a run across shards.
type Outcome struct {
	// M merges every shard's metrics (counters and histograms add,
	// watermarks take the max — see ftl.Metrics.Merge).
	M ftl.Metrics
	// Shards holds the per-shard results in shard order.
	Shards []ShardResult
	// Digest is the order-insensitive-across-shards fold of the per-shard
	// event hashes (see Digest).
	Digest uint64
	// Requests is the number of host-level requests routed; Fragments the
	// per-shard fragments they produced (flush barriers count one fragment
	// per shard).
	Requests  int64
	Fragments int64
}

// ReplayOptions tunes the deterministic replay driver.
type ReplayOptions struct {
	// Clients is the total number of concurrent submitter lanes, spread
	// round-robin over shards (minimum one per shard, which is the default).
	// A one-shard host has no lanes and ignores it.
	Clients int
	// Batch is the number of requests pulled from the source per call and
	// handed to a shard per submission (default DefaultBatch). Purely a
	// wall-clock and memory knob: the per-shard service order — and so every
	// simulated metric — is independent of it.
	Batch int
}

// DefaultBatch is the batch size when ReplayOptions.Batch is 0.
const DefaultBatch = 64

// Replay is ReplayStream over an in-memory trace.
func (h *Host) Replay(reqs []trace.Request, o ReplayOptions) (*Outcome, error) {
	return h.ReplayStream(trace.NewSliceIterator(reqs), o)
}

// ReplayStream serves a streamed request source on the shards,
// deterministically, and returns the run's outcome. Every simulated metric,
// per-shard EventHash and the merged Digest are bit-for-bit reproducible
// whatever the batch size, the client count or the Go scheduler do, and
// resident request memory is bounded by the batch buffers, never the trace.
//
// A host of one shard is the paper's device: one sequential state machine
// behind one admission queue. It is served on the calling goroutine through a
// single Batch-sized pull buffer — no routing (the device validates range
// itself), no lanes, no worker. Lanes at one shard were measured to buy
// nothing and cost memory (see DESIGN, "Request path"). Two or more shards
// are routed across concurrent per-shard workers (route).
//
// A failing source — or, where requests are routed, a request the layout
// cannot place — aborts the run with a nil outcome; a device error (at one
// shard that includes a malformed or out-of-range request) returns the
// outcome so far beside the error, which carries the shard, the failing
// request's index in that shard's stream and the device's own error
// (errors.Is sees through to flash.ErrPowerCut).
func (h *Host) ReplayStream(it trace.Iterator, o ReplayOptions) (*Outcome, error) {
	batch := o.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	qd := h.opt.depth()
	for _, sh := range h.shards {
		sh.reset(qd)
	}

	var requests, fragments int64
	var err error
	if len(h.shards) == 1 {
		requests, err = h.shards[0].drain(it, batch)
		fragments = requests
	} else {
		requests, fragments, err = h.route(it, batch, o.Clients)
	}
	if err != nil {
		return nil, err
	}
	out := h.collect()
	out.Requests = requests
	out.Fragments = fragments
	for _, sh := range h.shards {
		if sh.err != nil {
			return out, sh.err
		}
	}
	return out, nil
}

// drain serves the whole source on the calling goroutine and returns the
// number of requests pulled. It stops at the shard's first device error
// (left in s.err); a source error other than io.EOF is returned.
func (s *shard) drain(it trace.Iterator, batch int) (int64, error) {
	if len(s.pull) != batch {
		s.pull = make([]trace.Request, batch)
	}
	var requests int64
	for s.err == nil {
		n, err := it.Next(s.pull)
		s.serveBatch(s.pull[:n])
		requests += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return requests, fmt.Errorf("host: reading trace after request %d: %w", requests, err)
		}
	}
	return requests, nil
}

// replayLane is one client's channel pair: full batches flow shard-ward on
// data, served batches return on free for refilling. Two buffers circulate
// per lane, so a replay's resident request memory is O(batch × clients) —
// independent of trace length.
type replayLane struct {
	data chan []trace.Request
	free chan []trace.Request
}

// route serves a source across two or more shards concurrently: the router
// (the calling goroutine) pulls batches from the iterator, fragments each
// request per shard (flushes broadcast, payload ops split by LPN), and deals
// each shard's full batches round-robin across its client lanes; the shard
// worker takes one batch per lane per turn in the same round-robin — so the
// per-shard service order equals the partition order no matter how many
// clients feed it, what the batch size is, or how the Go scheduler
// interleaves the goroutines. It returns the requests and fragments routed.
func (h *Host) route(it trace.Iterator, batch, clients int) (requests, fragments int64, routeErr error) {
	if clients < h.lay.Shards {
		clients = h.lay.Shards
	}
	var wg sync.WaitGroup
	lanes := make([][]replayLane, h.lay.Shards)
	for s, sh := range h.shards {
		k := clientsOfShard(clients, h.lay.Shards, s)
		ls := make([]replayLane, k)
		for i := range ls {
			// Two buffers circulate per lane: one filling at the router, one
			// in flight or being served. The worker returns every buffer, so
			// free (cap 2) can never block it.
			ls[i] = replayLane{
				data: make(chan []trace.Request, 1),
				free: make(chan []trace.Request, 2),
			}
			ls[i].free <- make([]trace.Request, 0, batch)
			ls[i].free <- make([]trace.Request, 0, batch)
		}
		lanes[s] = ls
		wg.Add(1)
		go func(sh *shard, ls []replayLane) {
			defer wg.Done()
			open := len(ls)
			for turn := 0; open > 0; turn = (turn + 1) % len(ls) {
				if ls[turn].data == nil {
					continue
				}
				b, ok := <-ls[turn].data
				if !ok {
					ls[turn].data = nil
					open--
					continue
				}
				// After a failure serveBatch drops the batch; keep draining
				// so the router never blocks on a dead shard.
				sh.serveBatch(b)
				ls[turn].free <- b[:0]
			}
		}(sh, ls)
	}

	// The router: fill per-shard batch buffers in request order, rotating to
	// the next lane whenever one fills. The buffer a shard is filling always
	// comes from the pool of the lane it will be sent to.
	cur := make([][]trace.Request, h.lay.Shards)
	turn := make([]int, h.lay.Shards)
	for s := range cur {
		cur[s] = (<-lanes[s][0].free)[:0]
	}
	reqBuf := make([]trace.Request, batch)
	var frags []Fragment
router:
	for {
		n, err := it.Next(reqBuf)
		for i := 0; i < n; i++ {
			frags, routeErr = h.lay.Fragments(reqBuf[i], frags[:0])
			if routeErr != nil {
				routeErr = fmt.Errorf("host: request %d: %w", requests, routeErr)
				break router
			}
			requests++
			for _, f := range frags {
				fragments++
				s := f.Shard
				cur[s] = append(cur[s], f.Req)
				if len(cur[s]) == batch {
					lanes[s][turn[s]].data <- cur[s]
					turn[s] = (turn[s] + 1) % len(lanes[s])
					cur[s] = (<-lanes[s][turn[s]].free)[:0]
				}
			}
		}
		if err != nil {
			if err != io.EOF {
				routeErr = fmt.Errorf("host: reading trace after request %d: %w", requests, err)
			}
			break
		}
	}
	for s := range h.shards {
		if routeErr == nil && len(cur[s]) > 0 {
			lanes[s][turn[s]].data <- cur[s]
		}
		for i := range lanes[s] {
			close(lanes[s][i].data)
		}
	}
	wg.Wait()
	return requests, fragments, routeErr
}

// clientsOfShard spreads total clients round-robin over shards; every shard
// gets at least one.
func clientsOfShard(clients, shards, s int) int {
	k := clients / shards
	if s < clients%shards {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}

// collect snapshots every shard's metrics and folds the per-shard hashes
// into the merged digest.
func (h *Host) collect() *Outcome {
	out := &Outcome{Shards: make([]ShardResult, len(h.shards))}
	hashes := make([]uint64, len(h.shards))
	queues := h.opt.depth() != 1
	for s, sh := range h.shards {
		fs := sh.adm.Stats()
		hashes[s] = sh.dev.Scheduler().EventHash()
		sr := &out.Shards[s]
		*sr = ShardResult{Shard: s, M: sh.dev.Metrics(), EventHash: hashes[s], Admitted: fs.Admitted, FS: fs}
		if queues {
			// Queue-depth stats enter the metrics only when the admission
			// policy actually queues; the depth-1 closed loop is the
			// scalar-clock device, which reports none.
			sr.M.MaxQueueDepth = fs.MaxDepth
			sr.M.QueueDepthSum = fs.DepthSum
		}
		out.M.Merge(&sr.M)
		if sh.cell != nil {
			// Final epoch + queue stats so a scrape after the run (or during
			// a -telemetry-linger wait) sees the exact end-of-run numbers.
			// collect runs after every worker has exited, so the
			// single-writer rule holds.
			sh.dev.PublishLive()
			sh.cell.SetQueueStats(fs.Admitted, fs.DepthSum, fs.MaxDepth)
		}
	}
	out.Digest = Digest(hashes)
	return out
}
