package host

import (
	"fmt"
	"io"
	"sync"
	"time"

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
// Construct with New, then either Replay a trace deterministically or Start
// the queue-pair service and feed it from concurrent client goroutines.
type Host struct {
	lay    Layout
	opt    Options
	shards []*shard
	// serving is non-nil while the free-form queue-pair service is running
	// (between Start and Stop); Replay refuses to run concurrently with it.
	serving *sync.WaitGroup
}

// shard is one slice of the LPN space: a private device plus the admission
// state of its serial request loop. Everything here is touched only by the
// shard's worker goroutine (or, between runs, by the host's caller), never
// concurrently.
type shard struct {
	id  int
	dev *ftl.Device

	qd       int // 0 = open loop
	inflight ssd.EventQueue
	seq      int64

	admitted int64
	maxDepth int64
	depthSum int64
	err      error

	// cell is the shard's live-telemetry cell (nil when the plane is off).
	// The worker publishes queue stats into it once per served batch.
	cell *live.Cell

	inbox chan freeFrag // queue-pair mode submissions (nil outside Start/Stop)
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
// touched while a Replay or the queue-pair service is running.
func (h *Host) Device(s int) *ftl.Device { return h.shards[s].dev }

// SetLive attaches one live-telemetry cell per shard (cells[s] → shard s;
// nil entries or a nil slice detach). Each shard's device publishes epochs
// and flight-recorder entries into its cell from the shard worker goroutine,
// and the worker publishes frontend queue stats per batch — telemetry rides
// the existing single-writer-per-shard discipline, so replays stay
// bit-for-bit deterministic with the plane on or off.
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

// reset clears one run's admission state. A closed loop at depth 1 starts
// with the device's current clock occupying the single slot, reproducing the
// serial path's admit-at-now semantics (Device.Serve) after preconditioning
// or a warm-up phase; deeper queues and open loop start empty, exactly like
// a fresh ssd.Frontend — mirroring which path the non-sharded simulator
// would have taken.
func (s *shard) reset(qd int) {
	s.qd = qd
	s.inflight = ssd.EventQueue{}
	s.seq = 0
	s.admitted = 0
	s.maxDepth = 0
	s.depthSum = 0
	s.err = nil
	if qd == 1 {
		s.inflight.Push(ssd.Event{Time: s.dev.Now(), Seq: 0})
	}
}

// serveOne admits one local request against the shard's queue-depth policy
// and serves it on the device. Logical effects apply in call order; only
// simulated timing overlaps.
func (s *shard) serveOne(r trace.Request) (time.Duration, error) {
	arrival := time.Duration(r.Arrival)
	admit := arrival
	if s.qd > 0 {
		for s.inflight.Len() >= s.qd {
			e := s.inflight.Pop()
			if e.Time > admit {
				admit = e.Time
			}
		}
	}
	s.inflight.DrainThrough(admit)
	complete, err := s.dev.ServeAt(r, admit)
	if err != nil {
		return 0, err
	}
	s.admitted++
	s.seq++
	s.inflight.Push(ssd.Event{Time: complete, Seq: s.seq})
	depth := int64(s.inflight.Len())
	s.depthSum += depth
	if depth > s.maxDepth {
		s.maxDepth = depth
	}
	return complete, nil
}

// ShardResult is one shard's outcome of a run.
type ShardResult struct {
	Shard int
	// M is the shard device's metrics over the run's measured window, with
	// the shard frontend's queue-depth stats folded in (only when the
	// admission policy actually queues — depth 1 mirrors the serial path,
	// which reports none).
	M ftl.Metrics
	// EventHash is the shard scheduler's order-sensitive hash of every
	// flash operation since device creation.
	EventHash uint64
	// Admitted counts the fragments this shard served during the run.
	Admitted int64
	// FS is the shard frontend's queueing statistics — the same snapshot
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
	// Clients is the total number of concurrent submitter goroutines,
	// spread round-robin over shards (minimum one per shard, which is the
	// default).
	Clients int
	// Batch is the number of requests per submission (doorbell coalescing;
	// default 64). Purely a wall-clock knob: the per-shard service order —
	// and so every simulated metric — is independent of it.
	Batch int
}

// DefaultBatch is the submission batch size when ReplayOptions.Batch is 0.
const DefaultBatch = 64

// Replay routes a request stream across the shards and serves every shard
// concurrently, deterministically. It is the eager form of ReplayStream —
// the slice is wrapped in an iterator, so both paths share one router and
// every simulated metric, per-shard EventHash and the merged Digest are
// bit-for-bit identical between them.
func (h *Host) Replay(reqs []trace.Request, o ReplayOptions) (*Outcome, error) {
	return h.ReplayStream(trace.NewSliceIterator(reqs), o)
}

// replayLane is one client goroutine's channel pair: full batches flow
// shard-ward on data, served batches return on free for refilling. Two
// buffers circulate per lane, so a replay's resident request memory is
// O(batch × clients) — independent of trace length.
type replayLane struct {
	data chan []trace.Request
	free chan []trace.Request
}

// ReplayStream routes a streamed request source across the shards and serves
// every shard concurrently, deterministically: the router (the calling
// goroutine) pulls batches from the iterator, fragments each request per
// shard (flushes broadcast, payload ops split by LPN), and deals each
// shard's full batches round-robin across its client lanes; the shard worker
// takes one batch per lane per turn in the same round-robin — so the
// per-shard service order equals the partition order no matter how many
// clients feed it, what the batch size is, or how the Go scheduler
// interleaves the goroutines. Every simulated metric, per-shard EventHash
// and the merged Digest are therefore bit-for-bit reproducible — and equal
// to an eager Replay of the same requests — while resident memory stays
// bounded by the lane buffers, never the trace.
func (h *Host) ReplayStream(it trace.Iterator, o ReplayOptions) (*Outcome, error) {
	if h.serving != nil {
		return nil, fmt.Errorf("host: Replay while the queue-pair service is running")
	}
	batch := o.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	clients := o.Clients
	if clients < h.lay.Shards {
		clients = h.lay.Shards
	}
	qd := h.opt.depth()

	var wg sync.WaitGroup
	lanes := make([][]replayLane, h.lay.Shards)
	for s, sh := range h.shards {
		sh.reset(qd)
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
				// After a failure keep draining (without serving) so the
				// router never blocks on a dead shard.
				if sh.err == nil {
					for i := range b {
						if _, err := sh.serveOne(b[i]); err != nil {
							sh.err = fmt.Errorf("shard %d: %w", sh.id, err)
							break
						}
					}
					if sh.cell != nil {
						sh.cell.SetQueueStats(sh.admitted, sh.depthSum, sh.maxDepth)
					}
				}
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
	var requests, fragments int64
	var routeErr error
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

	if routeErr != nil {
		return nil, routeErr
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
	for s, sh := range h.shards {
		m := sh.dev.Metrics()
		if sh.qd != 1 {
			// Queue-depth stats exist only when the admission policy
			// actually queues; the depth-1 closed loop mirrors the serial
			// Device.Serve path, which reports none.
			m.MaxQueueDepth = sh.maxDepth
			m.QueueDepthSum = sh.depthSum
		}
		hashes[s] = sh.dev.Scheduler().EventHash()
		fs := ssd.FrontendStats{Admitted: sh.admitted, MaxDepth: sh.maxDepth, DepthSum: sh.depthSum}
		out.Shards[s] = ShardResult{Shard: s, M: m, EventHash: hashes[s], Admitted: sh.admitted, FS: fs}
		out.M.Merge(&m)
		if sh.cell != nil {
			// Final epoch + queue stats so a scrape after the run (or during
			// a -telemetry-linger wait) sees the exact end-of-run numbers.
			// collect runs after wg.Wait(), so the single-writer rule holds.
			sh.dev.PublishLive()
			sh.cell.SetQueueStats(sh.admitted, sh.depthSum, sh.maxDepth)
		}
	}
	out.Digest = Digest(hashes)
	return out
}
