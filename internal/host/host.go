package host

import (
	"fmt"
	"io"
	"runtime"
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
	// rt is route's buffers and channels (nil until the first sharded
	// replay).
	rt *router
}

// shard is one slice of the LPN space: a private device plus the admission
// queue of its serial request loop. Everything here is touched only by the
// goroutine serving the shard (or, between runs, by the host's caller), never
// concurrently — except adm, which the device's timing goroutine owns while
// the timing half is pipelined.
type shard struct {
	id  int
	dev *ftl.Device

	// adm is this run's admission queue, on cache lines of its own: a
	// pipelined timing half writes it on every request.
	adm *ssd.Admitter
	// piped is set for a run whose timing half runs beside the logical half
	// (see ReplayStream).
	piped bool
	// served counts the requests of this run's served batches: the index,
	// in the shard's stream, of the next batch's first request.
	served int64
	err    error

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
		h.shards[s] = cacheline.Isolated(shard{id: s, dev: dev, adm: cacheline.Isolated(ssd.Admitter{})})
	}
	return h, nil
}

// Layout returns the host's LPN→shard map.
func (h *Host) Layout() Layout { return h.lay }

// Device returns shard s's device, for per-shard setup (formatting,
// preconditioning, warming, fault arming) before a run. It must not be
// touched while a replay is running.
func (h *Host) Device(s int) *ftl.Device { return h.shards[s].dev }

// SetLive attaches one live-telemetry cell per shard (cells[s] → shard s).
// Each shard's device publishes epochs and flight-recorder entries into its
// cell from the goroutine serving the shard, which also publishes the
// admission queue's stats per batch — telemetry rides the existing
// single-writer-per-shard discipline, so replays stay bit-for-bit
// deterministic with the plane on or off.
func (h *Host) SetLive(cells []*live.Cell) {
	for s, sh := range h.shards {
		sh.cell = cells[s]
		sh.dev.SetLive(cells[s])
	}
}

// reset starts one run's admission queue. A closed loop at depth 1 starts
// with the device's current clock occupying the single slot, so every request
// is admitted at max(arrival, device idle) — Device.Serve's scalar-clock
// admission — even after preconditioning or a warm-up phase moved the clock;
// deeper queues and open loop start empty. This is the one place that rule
// lives.
func (s *shard) reset(qd int) {
	*s.adm = *ssd.NewAdmitter(qd)
	s.err = nil
	s.served = 0
	if qd == 1 {
		s.adm.Occupy(s.dev.Now())
	}
}

// start begins a run's serving. With spare cores (pipe) and no per-request
// observer on the device, the device's timing half — scheduler, admission
// through adm, response accounting — moves to a goroutine of its own, fed
// the operation log, while the goroutine serving the shard runs only the
// logical half. Otherwise both halves run on the serving goroutine. The
// simulated results are the same either way.
func (s *shard) start(pipe bool) {
	s.piped = pipe && !s.dev.Observed()
	if s.piped {
		s.dev.StartTiming(s.adm)
	}
}

// stop joins the run's timing goroutine, if any: afterwards the device's
// clock, metrics and event hash, and adm, cover every request served.
func (s *shard) stop() {
	if s.piped {
		s.dev.StopTiming()
		s.piped = false
	}
}

// serveBatch serves a batch of local requests, in order — the one per-batch
// serve function, run by the caller's goroutine on a one-shard host and by
// the shard's worker otherwise. Inline, each request is admitted against the
// shard's queue-depth policy and served; pipelined, the device applies it and
// logs its flash operations for the timing goroutine, which admits it. Logical
// effects apply in call order; only simulated timing overlaps. The first
// device error sticks, carrying the failing request's index in the shard's
// stream; later batches are dropped unserved.
func (s *shard) serveBatch(b []trace.Request) {
	if s.err != nil {
		return
	}
	for i := range b {
		var err error
		if s.piped {
			err = s.dev.Apply(b[i])
		} else {
			_, err = s.adm.Admit(s.dev, b[i])
		}
		if err != nil {
			s.err = fmt.Errorf("shard %d: request %d: %w", s.id, s.served+int64(i), err)
			break
		}
	}
	s.served += int64(len(b))
	if s.cell != nil {
		// A live cell is an observer, so this run is inline and adm is
		// this goroutine's to read.
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
	// Batch is the number of requests pulled from the source per call
	// (default DefaultBatch). A one-shard host serves each pull as it is; a
	// host of two or more shards hands each shard its fragments in chunks of
	// ⌈Batch/laneChunks⌉, laneChunks of them circulating per client lane, and
	// keeps the pull buffer and the chunks from one replay to the next of
	// the same Batch and Clients (router). Purely a wall-clock and memory
	// knob: the per-shard service order — and so every simulated metric — is
	// independent of it.
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
// When GOMAXPROCS leaves two cores per shard, each device's timing model runs
// beside it on a goroutine of its own (shard.start), joined before
// ReplayStream returns; a device with a tracer, a metrics export or a live
// cell attached keeps it inline. Neither changes a simulated number.
//
// A failing source — or, where requests are routed, a request the layout
// cannot place — aborts the run with a nil outcome; a device error (at one
// shard that includes a malformed or out-of-range request) returns the
// outcome so far beside the error, which carries the shard, the failing
// request's index in that shard's stream and the device's own error
// (errors.Is sees through to flash.ErrPowerCut).
func (h *Host) ReplayStream(it trace.Iterator, o ReplayOptions) (*Outcome, error) {
	requests, fragments, err := h.serve(it, o)
	if err != nil {
		return nil, err
	}
	out := h.collect()
	out.Requests = requests
	out.Fragments = fragments
	return out, h.shardErr()
}

// Warm serves a stream exactly as ReplayStream does and returns its error,
// but builds no Outcome: a warm-up whose metrics are reset right after does
// not need the two Metrics copies (55 KB each) per shard that collecting
// costs.
func (h *Host) Warm(it trace.Iterator, o ReplayOptions) error {
	if _, _, err := h.serve(it, o); err != nil {
		return err
	}
	return h.shardErr()
}

// shardErr returns the lowest shard's device error of the last replay.
func (h *Host) shardErr() error {
	for _, sh := range h.shards {
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// serve runs one replay of the source on the shards and returns the
// requests and fragments it routed, or the source's error.
func (h *Host) serve(it trace.Iterator, o ReplayOptions) (requests, fragments int64, err error) {
	batch := o.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	qd := h.opt.depth()
	pipe := runtime.GOMAXPROCS(0) >= 2*len(h.shards)
	for _, sh := range h.shards {
		sh.reset(qd)
		sh.start(pipe)
	}

	if len(h.shards) == 1 {
		requests, err = h.shards[0].drain(it, batch)
		fragments = requests
	} else {
		requests, fragments, err = h.route(it, batch, o.Clients)
	}
	for _, sh := range h.shards {
		sh.stop()
	}
	return requests, fragments, err
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
			return requests, fmt.Errorf("host: reading trace: %w", err)
		}
	}
	return requests, nil
}

// laneChunks is the number of chunks circulating per client lane, each of
// ⌈Batch/laneChunks⌉ fragments, so a lane holds one Batch of fragments. Small
// chunks leave a light shard's fragments waiting at the router for less time
// while the router itself waits on the busy shard (DESIGN, "Request path").
const laneChunks = 16

// replayLane is one client's channel pair: full chunks flow shard-ward on
// data, served chunks return on free for refilling, and a nil chunk on data
// ends the shard's run. laneChunks chunks circulate per lane.
type replayLane struct {
	data chan []trace.Request
	free chan []trace.Request
}

// router is what route circulates between the calling goroutine and the shard
// workers: the pull buffer, and per shard one replayLane per client with its
// ring of fragment chunks. The host builds it on the first sharded replay and
// hands the same one to every later replay of the same Batch and Clients, so a
// warm-up and the measured phase share it. Between replays every chunk sits
// in its lane's free channel and every data channel is empty.
//
// The pull buffer holds Batch requests and each lane about as many, so a
// host's resident request memory is about (1 + Clients) × Batch requests,
// whatever the trace's length.
type router struct {
	batch, clients int // the shape it was built for
	chunk          int // fragments per lane chunk, ⌈batch/laneChunks⌉
	pull           []trace.Request
	lanes          [][]replayLane
	cur            [][]trace.Request // the chunk each shard is filling
	turn           []int             // the lane each shard's chunk goes to
	frags          []Fragment
	wg             sync.WaitGroup
}

// router returns the host's router for a replay of this shape, building it
// when there is none yet or the last one had another.
func (h *Host) router(batch, clients int) *router {
	if rt := h.rt; rt != nil && rt.batch == batch && rt.clients == clients {
		return rt
	}
	n := len(h.shards)
	rt := &router{
		batch:   batch,
		clients: clients,
		chunk:   (batch + laneChunks - 1) / laneChunks,
		pull:    make([]trace.Request, batch),
		lanes:   make([][]replayLane, n),
		cur:     make([][]trace.Request, n),
		turn:    make([]int, n),
	}
	for s := range rt.lanes {
		ls := make([]replayLane, clientsOfShard(clients, n, s))
		for i := range ls {
			// One chunk filling at the router, the rest queued, in flight or
			// being served. The worker returns every chunk, so free (cap
			// laneChunks) can never block it.
			ls[i] = replayLane{
				data: make(chan []trace.Request, laneChunks-1),
				free: make(chan []trace.Request, laneChunks),
			}
			for range laneChunks {
				ls[i].free <- make([]trace.Request, 0, rt.chunk)
			}
		}
		rt.lanes[s] = ls
	}
	h.rt = rt
	return rt
}

// route serves a source across two or more shards concurrently: the router
// (the calling goroutine) pulls batches from the iterator, fragments each
// request per shard (flushes broadcast, payload ops split by LPN), and deals
// each shard's full chunks round-robin across its client lanes; the shard
// worker takes one chunk per lane per turn in the same round-robin — so the
// per-shard service order equals the partition order no matter how many
// clients feed it, what the batch size is, or how the Go scheduler
// interleaves the goroutines. It returns the requests and fragments routed.
// Every chunk is back in its lane's pool when it returns, also after a
// source, layout or device error.
func (h *Host) route(it trace.Iterator, batch, clients int) (requests, fragments int64, routeErr error) {
	rt := h.router(batch, max(clients, len(h.shards)))
	for s, sh := range h.shards {
		rt.wg.Add(1)
		go func(sh *shard, ls []replayLane) {
			defer rt.wg.Done()
			for turn := 0; ; turn = (turn + 1) % len(ls) {
				b := <-ls[turn].data
				if b == nil {
					return
				}
				// After a failure serveBatch drops the batch; keep draining
				// so the router never blocks on a dead shard.
				sh.serveBatch(b)
				ls[turn].free <- b[:0]
			}
		}(sh, rt.lanes[s])
	}

	// The router: fill per-shard chunks in request order, rotating to the
	// next lane whenever one fills. The chunk a shard is filling always comes
	// from the pool of the lane it will be sent to.
	lanes, cur, turn, pull, frags, chunk := rt.lanes, rt.cur, rt.turn, rt.pull, rt.frags, rt.chunk
	for s := range cur {
		turn[s] = 0
		cur[s] = <-lanes[s][0].free
	}
router:
	for {
		n, err := it.Next(pull)
		for i := 0; i < n; i++ {
			frags, routeErr = h.lay.Fragments(pull[i], frags[:0])
			if routeErr != nil {
				routeErr = fmt.Errorf("host: request %d: %w", requests, routeErr)
				break router
			}
			requests++
			for _, f := range frags {
				fragments++
				s := f.Shard
				cur[s] = append(cur[s], f.Req)
				if len(cur[s]) == chunk {
					lanes[s][turn[s]].data <- cur[s]
					turn[s] = (turn[s] + 1) % len(lanes[s])
					cur[s] = <-lanes[s][turn[s]].free
				}
			}
		}
		if err != nil {
			if err != io.EOF {
				routeErr = fmt.Errorf("host: reading trace: %w", err)
			}
			break
		}
	}
	// A shard's last, partial chunk is served unless the run failed; an
	// unsent chunk goes back to its lane's pool. Then the nil that ends a
	// shard's run goes to the lane its worker reads next — after every
	// shard's last chunk, since it may wait for the worker to take a chunk
	// and no other shard's chunk may wait behind it.
	for s, lane := range lanes {
		if routeErr == nil && len(cur[s]) > 0 {
			lane[turn[s]].data <- cur[s]
			turn[s] = (turn[s] + 1) % len(lane)
		} else {
			lane[turn[s]].free <- cur[s][:0]
		}
		cur[s] = nil
	}
	for s, lane := range lanes {
		lane[turn[s]].data <- nil
	}
	rt.frags = frags
	rt.wg.Wait()
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
			// Final queue stats, so a scrape after the run (or during a
			// -telemetry-linger wait) sees the exact end-of-run numbers; the
			// device's last epoch comes with FinishObservability.
			sh.cell.SetQueueStats(fs.Admitted, fs.DepthSum, fs.MaxDepth)
		}
	}
	out.Digest = Digest(hashes)
	return out
}
