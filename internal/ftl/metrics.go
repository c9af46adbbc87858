package ftl

import (
	"time"

	"repro/internal/obs"
)

// Metrics accumulates the counters the paper's evaluation reports. Field
// names follow Table 1's symbols where one exists.
type Metrics struct {
	// User-visible request accounting.
	Requests      int64
	PageReads     int64 // user data page reads
	PageWrites    int64 // user data page writes (Npa*Rw)
	ServiceTime   time.Duration
	ResponseTime  time.Duration // service + queueing, summed
	MaxResponse   time.Duration
	QueueTime     time.Duration
	UnmappedReads int64 // reads of never-written pages (no flash op)

	// Host-interface ops beyond plain read/write.
	TrimRequests  int64 // TRIM/discard requests served
	TrimmedPages  int64 // live logical pages invalidated by TRIM (GC credit)
	FlushRequests int64 // host flush barriers served
	FlushStalls   int64 // flushes that wrote at least one translation page
	FUAWrites     int64 // forced-unit-access write requests served

	// Address-translation phase.
	Lookups          int64 // cache lookups (hits+misses)
	Hits             int64 // Hr = Hits/Lookups
	Replacements     int64 // cache entry replacements
	DirtyReplaced    int64 // Prd = DirtyReplaced/Replacements
	TransReadsAT     int64 // translation page reads during address translation
	TransWritesAT    int64 // Ntw: translation page writes during address translation
	BatchWritebacks  int64 // translation-page updates that cleaned ≥1 cached entry
	BatchCleaned     int64 // dirty entries cleaned by those updates
	PrefetchedLoaded int64 // entries loaded beyond the requested one

	// Garbage collection.
	GCDataCollections  int64 // Ngcd
	GCTransCollections int64 // Ngct
	GCDataMigrations   int64 // Nmd: valid data pages moved
	GCTransMigrations  int64 // Nmt: valid translation pages moved
	GCMapUpdates       int64 // migrated data pages needing a mapping update
	GCMapHits          int64 // Hgcr = GCMapHits/GCMapUpdates
	TransReadsGC       int64 // translation page reads during GC
	TransWritesGC      int64 // Ndt: translation page writes during GC (mapping updates)
	GCDataValidSum     int64 // Σ valid pages over collected data blocks (Vd mean)
	GCTransValidSum    int64 // Σ valid pages over collected translation blocks (Vt mean)
	GCTime             time.Duration
	WearLevelMoves     int64 // blocks recycled by static wear leveling

	// Flash totals (excluding the formatting pre-fill).
	FlashReads    int64
	FlashPrograms int64
	FlashErases   int64

	// Fault injection / reliability (see flash.FaultPlan).
	InjectedFaults int64 // injected chip faults the device observed
	FaultRetries   int64 // operations retried after a transient fault

	// Parallel backend (internal/ssd). Channels/DiesPerChannel echo the
	// device geometry; Elapsed is the simulated time from the last metrics
	// reset to the latest completion; ChanBusy is each channel's summed
	// die-busy time over that window. MaxQueueDepth/QueueDepthSum are
	// filled by the frontend when a run is driven open-loop or at QD>1
	// (zero on the plain Serve path).
	Channels       int
	DiesPerChannel int
	Elapsed        time.Duration
	ChanBusy       [MaxChannels]time.Duration
	MaxQueueDepth  int64
	QueueDepthSum  int64 // Σ in-flight at admission; mean = /Requests

	// Phases holds one log-linear latency histogram per obs.Phase,
	// recorded per request by the device. Phases[obs.PhaseResponse] is fed
	// by ObserveResponse, so the standalone baseline devices get it too;
	// the finer phases (queue, translation hit/miss/prefetch, data,
	// writeback, GC stall) are attributed only by ftl.Device.
	Phases [obs.NumPhases]obs.Histogram
}

// ObserveResponse records one response time: the response-phase histogram
// and MaxResponse.
func (m *Metrics) ObserveResponse(d time.Duration) {
	if d > m.MaxResponse {
		m.MaxResponse = d
	}
	m.Phases[obs.PhaseResponse].Record(d)
}

// Hr returns the cache hit ratio of address translation.
func (m *Metrics) Hr() float64 { return ratio(m.Hits, m.Lookups) }

// Prd returns the probability that a replaced cache entry was dirty.
func (m *Metrics) Prd() float64 { return ratio(m.DirtyReplaced, m.Replacements) }

// Hgcr returns the GC-time mapping-cache hit ratio.
func (m *Metrics) Hgcr() float64 { return ratio(m.GCMapHits, m.GCMapUpdates) }

// Rw returns the write ratio among user page accesses.
func (m *Metrics) Rw() float64 { return ratio(m.PageWrites, m.PageReads+m.PageWrites) }

// PageAccesses returns Npa, the number of user page accesses.
func (m *Metrics) PageAccesses() int64 { return m.PageReads + m.PageWrites }

// TransReads returns all translation page reads (AT phase + GC).
func (m *Metrics) TransReads() int64 { return m.TransReadsAT + m.TransReadsGC }

// TransWrites returns all translation page writes including migrations
// (Ntw + Ndt + Nmt).
func (m *Metrics) TransWrites() int64 {
	return m.TransWritesAT + m.TransWritesGC + m.GCTransMigrations
}

// Vd returns the mean number of valid pages in collected data blocks.
func (m *Metrics) Vd() float64 { return ratio(m.GCDataValidSum, m.GCDataCollections) }

// Vt returns the mean number of valid pages in collected translation blocks.
func (m *Metrics) Vt() float64 { return ratio(m.GCTransValidSum, m.GCTransCollections) }

// WriteAmplification returns Eq. 12: all flash page programs over user page
// writes. Infinite WA (read-only workload) reports 0.
func (m *Metrics) WriteAmplification() float64 {
	if m.PageWrites == 0 {
		return 0
	}
	extra := m.TransWritesAT + m.TransWritesGC + m.GCTransMigrations + m.GCDataMigrations
	return float64(m.PageWrites+extra) / float64(m.PageWrites)
}

// AvgResponse returns the mean request response time (queueing included).
func (m *Metrics) AvgResponse() time.Duration {
	if m.Requests == 0 {
		return 0
	}
	return m.ResponseTime / time.Duration(m.Requests)
}

// AvgService returns the mean request service time (queueing excluded).
func (m *Metrics) AvgService() time.Duration {
	if m.Requests == 0 {
		return 0
	}
	return m.ServiceTime / time.Duration(m.Requests)
}

// ChannelUtilization returns channel ch's busy fraction over the measured
// window: its dies' summed busy time divided by dies × elapsed time.
func (m *Metrics) ChannelUtilization(ch int) float64 {
	if m.Elapsed <= 0 || m.DiesPerChannel <= 0 || ch < 0 || ch >= m.Channels || ch >= MaxChannels {
		return 0
	}
	return float64(m.ChanBusy[ch]) / (float64(m.Elapsed) * float64(m.DiesPerChannel))
}

// AvgQueueDepth returns the mean in-flight request count at admission, when
// a frontend drove the run (0 otherwise).
func (m *Metrics) AvgQueueDepth() float64 { return ratio(m.QueueDepthSum, m.Requests) }

// Throughput returns served requests per second of simulated elapsed time.
func (m *Metrics) Throughput() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Requests) / m.Elapsed.Seconds()
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Phase returns the histogram of one latency phase.
func (m *Metrics) Phase(p obs.Phase) *obs.Histogram { return &m.Phases[p] }

// Snapshot returns a copy of the metrics at this instant. Metrics is a
// value type (fixed arrays, no pointers), so the copy is independent of
// further accumulation.
func (m *Metrics) Snapshot() Metrics { return *m }

// Merge folds o into m: counters, durations and histograms add; watermarks
// (MaxResponse, MaxQueueDepth) and geometry echoes (Channels,
// DiesPerChannel) take the maximum. Addition is commutative, so the order
// of merging does not matter; this is how internal/host folds its shards'
// metrics into one run-level Metrics.
func (m *Metrics) Merge(o *Metrics) {
	m.Requests += o.Requests
	m.PageReads += o.PageReads
	m.PageWrites += o.PageWrites
	m.ServiceTime += o.ServiceTime
	m.ResponseTime += o.ResponseTime
	m.QueueTime += o.QueueTime
	m.UnmappedReads += o.UnmappedReads
	m.TrimRequests += o.TrimRequests
	m.TrimmedPages += o.TrimmedPages
	m.FlushRequests += o.FlushRequests
	m.FlushStalls += o.FlushStalls
	m.FUAWrites += o.FUAWrites
	m.Lookups += o.Lookups
	m.Hits += o.Hits
	m.Replacements += o.Replacements
	m.DirtyReplaced += o.DirtyReplaced
	m.TransReadsAT += o.TransReadsAT
	m.TransWritesAT += o.TransWritesAT
	m.BatchWritebacks += o.BatchWritebacks
	m.BatchCleaned += o.BatchCleaned
	m.PrefetchedLoaded += o.PrefetchedLoaded
	m.GCDataCollections += o.GCDataCollections
	m.GCTransCollections += o.GCTransCollections
	m.GCDataMigrations += o.GCDataMigrations
	m.GCTransMigrations += o.GCTransMigrations
	m.GCMapUpdates += o.GCMapUpdates
	m.GCMapHits += o.GCMapHits
	m.TransReadsGC += o.TransReadsGC
	m.TransWritesGC += o.TransWritesGC
	m.GCDataValidSum += o.GCDataValidSum
	m.GCTransValidSum += o.GCTransValidSum
	m.GCTime += o.GCTime
	m.WearLevelMoves += o.WearLevelMoves
	m.FlashReads += o.FlashReads
	m.FlashPrograms += o.FlashPrograms
	m.FlashErases += o.FlashErases
	m.InjectedFaults += o.InjectedFaults
	m.FaultRetries += o.FaultRetries
	m.Elapsed += o.Elapsed
	m.QueueDepthSum += o.QueueDepthSum
	if o.MaxResponse > m.MaxResponse {
		m.MaxResponse = o.MaxResponse
	}
	if o.MaxQueueDepth > m.MaxQueueDepth {
		m.MaxQueueDepth = o.MaxQueueDepth
	}
	if o.Channels > m.Channels {
		m.Channels = o.Channels
	}
	if o.DiesPerChannel > m.DiesPerChannel {
		m.DiesPerChannel = o.DiesPerChannel
	}
	for i := range m.ChanBusy {
		m.ChanBusy[i] += o.ChanBusy[i]
	}
	for i := range m.Phases {
		m.Phases[i].Merge(&o.Phases[i])
	}
}

// Counters returns the cumulative exported counters: the one place a
// Metrics field is bound to a row of obs.CounterTable.
func (m *Metrics) Counters() obs.Counters {
	return obs.Counters{
		obs.CtrRequests:      m.Requests,
		obs.CtrPageReads:     m.PageReads,
		obs.CtrPageWrites:    m.PageWrites,
		obs.CtrLookups:       m.Lookups,
		obs.CtrHits:          m.Hits,
		obs.CtrFlashReads:    m.FlashReads,
		obs.CtrFlashPrograms: m.FlashPrograms,
		obs.CtrFlashErases:   m.FlashErases,
		obs.CtrTransReads:    m.TransReads(),
		obs.CtrTransWrites:   m.TransWrites(),
		obs.CtrPrefetched:    m.PrefetchedLoaded,
		obs.CtrTrimmedPages:  m.TrimmedPages,
		obs.CtrFlushes:       m.FlushRequests,
		obs.CtrGCData:        m.GCDataCollections,
		obs.CtrGCTrans:       m.GCTransCollections,
		obs.CtrResponseNS:    int64(m.ResponseTime),
		obs.CtrServiceNS:     int64(m.ServiceTime),
		obs.CtrQueueNS:       int64(m.QueueTime),
		obs.CtrGCNS:          int64(m.GCTime),
	}
}
