package service

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/kit-ces/hayat/internal/circuit"
	"github.com/kit-ces/hayat/internal/cluster"
	"github.com/kit-ces/hayat/internal/sim"
)

// Counter is an expvar-style monotonic (or up/down, for gauges) counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n may be negative for gauges).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Store sets the counter to v (for gauges that track a latest-value, like
// the epoch a recovered job resumed from).
func (c *Counter) Store(v int64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histogramBounds are the latency bucket upper bounds in seconds
// (roughly log-spaced from 1 ms to 1 min, plus +Inf).
var histogramBounds = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram accumulates duration observations into fixed log-spaced
// buckets.
type Histogram struct {
	mu     sync.Mutex
	counts []int64 // one slot per bound plus a final +Inf bucket
	sum    float64
	n      int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		h.counts = make([]int64, len(histogramBounds)+1)
	}
	h.n++
	h.sum += s
	for i, b := range histogramBounds {
		if s <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(histogramBounds)]++
}

// Bucket is one histogram bucket: the count of observations ≤ LE seconds
// (the last bucket has LE = +Inf encoded as 0 with Inf=true omitted —
// JSON cannot carry Inf, so it is rendered as le_s = -1).
type Bucket struct {
	LE    float64 `json:"le_s"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is a consistent copy of a histogram.
type HistogramSnapshot struct {
	Count      int64    `json:"count"`
	SumSeconds float64  `json:"sum_s"`
	Buckets    []Bucket `json:"buckets"`
}

// Snapshot copies the histogram state. Empty buckets are elided.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.n, SumSeconds: h.sum}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		le := -1.0 // +Inf bucket
		if i < len(histogramBounds) {
			le = histogramBounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{LE: le, Count: c})
	}
	return s
}

// sizeBounds are the batch-size bucket upper bounds (powers of two up to
// the per-request item cap).
var sizeBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// SizeHistogram accumulates integer observations (batch sizes) into
// power-of-two buckets.
type SizeHistogram struct {
	mu     sync.Mutex
	counts []int64
	sum    int64
	n      int64
}

// Observe records one size.
func (h *SizeHistogram) Observe(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		h.counts = make([]int64, len(sizeBounds)+1)
	}
	h.n++
	h.sum += int64(v)
	for i, b := range sizeBounds {
		if int64(v) <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(sizeBounds)]++
}

// SizeBucket is one size bucket: observations ≤ LE (-1 encodes +Inf).
type SizeBucket struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// SizeHistogramSnapshot is a consistent copy of a size histogram.
type SizeHistogramSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []SizeBucket `json:"buckets"`
}

// Snapshot copies the histogram state. Empty buckets are elided.
func (h *SizeHistogram) Snapshot() SizeHistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := SizeHistogramSnapshot{Count: h.n, Sum: h.sum}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		le := int64(-1) // +Inf bucket
		if i < len(sizeBounds) {
			le = sizeBounds[i]
		}
		s.Buckets = append(s.Buckets, SizeBucket{LE: le, Count: c})
	}
	return s
}

// Metrics aggregates the service's counters and per-stage latency
// histograms, in the spirit of stdlib expvar: cheap to update, exported
// as one JSON document on GET /metrics.
type Metrics struct {
	// Job lifecycle counters.
	JobsQueued    Counter // accepted into the queue
	JobsRunning   Counter // gauge: currently executing
	JobsDone      Counter
	JobsFailed    Counter
	JobsCancelled Counter
	Coalesced     Counter // requests folded onto an in-flight identical job

	// Result-cache outcomes (content-addressed request key).
	CacheHits   Counter
	CacheMisses Counter

	// SimRuns counts simulations actually executed — the ground truth for
	// "identical requests ran the engine exactly once".
	SimRuns Counter

	// Reliability counters: crash recovery, retries, checkpointing and
	// corruption handling.
	Retries               Counter // transient failures retried with backoff
	RetryExhausted        Counter // retry budgets that ran out
	JobsRecovered         Counter // jobs re-enqueued from the journal at startup
	CheckpointWrites      Counter // checkpoints persisted
	CheckpointWriteErrors Counter // checkpoint persists that failed (sim continued)
	CheckpointResumes     Counter // recovered jobs resumed from a checkpoint
	LastResumeEpoch       Counter // gauge: epoch of the most recent resume
	Quarantined           Counter // corrupt cache entries sidelined
	JournalAppendErrors   Counter // journal writes that failed
	JournalCorrupt        Counter // corrupt journal lines skipped at replay
	ChipResultsReused     Counter // population chips restored instead of re-simulated

	// Admission-control outcomes.
	JobsShed     Counter // rejected by cost-aware shedding (429)
	JobsEvicted  Counter // expired in the queue, never executed
	JobsDegraded Counter // answered with the fast analytic estimate
	RateLimited  Counter // rejected by a client token bucket (429)

	// Batched-submission outcomes.
	BatchFlushes Counter       // batches flushed (one admission pass + one fsync each)
	BatchItems   Counter       // items carried by those flushes
	FsyncsSaved  Counter       // journal fsyncs avoided vs per-item submits
	BatchSizes   SizeHistogram // items per flush

	// Result-provenance (merkle audit log) outcomes.
	MerkleLeaves       Counter // terminal results recorded in the audit tree
	MerkleAppendErrors Counter // audit appends that failed (leaf kept in memory)
	MerkleProofs       Counter // inclusion proofs served
	MerkleProofErrors  Counter // proof requests that failed (no leaf / non-terminal job)
	MerkleCorrupt      Counter // corrupt audit-log lines skipped at replay

	// Per-stage latency histograms.
	BatchFlush Histogram // batch flush entry → journal fsync done
	QueueWait  Histogram // submit → worker pickup
	Setup      Histogram // system + chip construction
	Simulate   Histogram // engine run
	Encode     Histogram // result serialisation
	Admission  Histogram // submit entry → admission decision

	// Per-epoch simulation stage timings (sim.StageObserver): cumulative
	// wall-clock nanoseconds and observation counts for the mapping,
	// thermal and aging phases of every epoch executed by this server.
	EpochStageNanos  [3]Counter
	EpochStageCounts [3]Counter

	// Cluster forwarding outcomes (all zero in single-node mode).
	ForwardAttempts      Counter // submits whose key a remote peer owned
	Forwards             Counter // forwards accepted by the owner
	ForwardBusy          Counter // owner 429/503 passed through to the client
	ForwardFailures      Counter // forwards that exhausted retries
	ForwardFallbackLocal Counter // jobs degraded to local execution
	Reroutes             Counter // work re-routed to a key's next owner
	ChipsForwarded       Counter // population chips accepted by peers
	ChipsFetched         Counter // chip results fetched and validated
	ChipsStolen          Counter // chips stolen back to local simulation
	ForwardLatency       Histogram
	RemoteFetch          Histogram

	// Replicated result-store outcomes (see internal/store). The debt
	// gauge is read live from the store, not counted here.
	StoreHedgedWins       Counter   // hedged replica fetches that supplied the served bytes
	StoreHedgedLosses     Counter   // launched hedged attempts that lost (failed, missed, cancelled)
	StoreReadRepairs      Counter   // local tiers or peers repaired from a verifying copy
	StoreQuarantines      Counter   // store entries quarantined (corrupt or divergent)
	StoreReplicaPuts      Counter   // result copies pushed to peers
	StoreReplicaPutErrors Counter   // replica pushes that failed (debt recorded)
	StoreReplicaServes    Counter   // GET/HEAD /v1/store hits served to peers
	StoreSweeps           Counter   // anti-entropy sweeps completed
	StoreSweepDur         Histogram // sweep wall-clock
}

// ObserveStage is a sim.StageObserver: it accumulates per-epoch stage
// durations into cheap atomic counters (histograms would contend — this
// hook fires three times per epoch on simulation goroutines).
func (m *Metrics) ObserveStage(stage sim.Stage, d time.Duration) {
	if stage < 0 || int(stage) >= len(m.EpochStageNanos) {
		return
	}
	m.EpochStageNanos[stage].Add(int64(d))
	m.EpochStageCounts[stage].Add(1)
}

// EpochStageSnapshot is one simulation stage's accumulated timing.
type EpochStageSnapshot struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_s"`
}

// MetricsSnapshot is the JSON shape served on /metrics.
type MetricsSnapshot struct {
	Jobs struct {
		Queued    int64 `json:"queued"`
		Running   int64 `json:"running"`
		Done      int64 `json:"done"`
		Failed    int64 `json:"failed"`
		Cancelled int64 `json:"cancelled"`
		Coalesced int64 `json:"coalesced"`
	} `json:"jobs"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Artifacts struct {
		Hits        int64 `json:"hits"`
		Misses      int64 `json:"misses"`
		Platforms   int   `json:"platforms"`
		Predictors  int   `json:"predictors"`
		AgingTables int   `json:"aging_tables"`
	} `json:"artifacts"`
	Reliability struct {
		Retries               int64 `json:"retries"`
		RetryExhausted        int64 `json:"retry_exhausted"`
		JobsRecovered         int64 `json:"jobs_recovered"`
		CheckpointWrites      int64 `json:"checkpoint_writes"`
		CheckpointWriteErrors int64 `json:"checkpoint_write_errors"`
		CheckpointResumes     int64 `json:"checkpoint_resumes"`
		LastResumeEpoch       int64 `json:"last_resume_epoch"`
		Quarantined           int64 `json:"quarantined"`
		JournalAppendErrors   int64 `json:"journal_append_errors"`
		JournalCorrupt        int64 `json:"journal_corrupt"`
		ChipResultsReused     int64 `json:"chip_results_reused"`
	} `json:"reliability"`
	Admission struct {
		Shed        int64 `json:"shed"`
		Evicted     int64 `json:"evicted"`
		Degraded    int64 `json:"degraded"`
		RateLimited int64 `json:"rate_limited"`
		// Pressure and ClientDepths are filled in by the server (they are
		// live admission state, not counters).
		Pressure     bool           `json:"pressure"`
		ClientDepths map[string]int `json:"client_depths,omitempty"`
	} `json:"admission"`
	Batch struct {
		Flushes      int64                 `json:"flushes"`
		Items        int64                 `json:"items"`
		FsyncsSaved  int64                 `json:"fsyncs_saved"`
		Sizes        SizeHistogramSnapshot `json:"sizes"`
		FlushSeconds HistogramSnapshot     `json:"flush_seconds"`
	} `json:"batch"`
	Merkle struct {
		Leaves       int64 `json:"leaves"`
		AppendErrors int64 `json:"append_errors"`
		Proofs       int64 `json:"proofs"`
		ProofErrors  int64 `json:"proof_errors"`
		Corrupt      int64 `json:"corrupt"`
		// Segments and SealedSegments are filled in by the server from the
		// live audit log.
		Segments       int `json:"segments"`
		SealedSegments int `json:"sealed_segments"`
	} `json:"merkle"`
	Cluster struct {
		Enabled              bool              `json:"enabled"`
		Self                 string            `json:"self,omitempty"`
		ForwardAttempts      int64             `json:"forward_attempts"`
		Forwards             int64             `json:"forwards"`
		ForwardBusy          int64             `json:"forward_busy"`
		ForwardFailures      int64             `json:"forward_failures"`
		ForwardFallbackLocal int64             `json:"forward_fallback_local"`
		Reroutes             int64             `json:"reroutes"`
		ChipsForwarded       int64             `json:"chips_forwarded"`
		ChipsFetched         int64             `json:"chips_fetched"`
		ChipsStolen          int64             `json:"chips_stolen"`
		ForwardSeconds       HistogramSnapshot `json:"forward_seconds"`
		FetchSeconds         HistogramSnapshot `json:"fetch_seconds"`
		// Peers is filled in by the server from the live router (per-peer
		// health state, probe counts and breaker snapshots).
		Peers map[string]cluster.PeerSnapshot `json:"peers,omitempty"`
	} `json:"cluster"`
	Store struct {
		HedgedWins     int64             `json:"hedged_wins"`
		HedgedLosses   int64             `json:"hedged_losses"`
		ReadRepairs    int64             `json:"read_repairs"`
		Quarantines    int64             `json:"quarantines"`
		ReplicaPuts    int64             `json:"replica_puts"`
		ReplicaPutErrs int64             `json:"replica_put_errors"`
		ReplicaServes  int64             `json:"replica_serves"`
		Sweeps         int64             `json:"sweeps"`
		SweepSeconds   HistogramSnapshot `json:"sweep_seconds"`
		// ReplicationDebt and Warmed are filled in by the server from the
		// live store: copies currently owed to peers, and whether the
		// warm-up CRC scan has finished.
		ReplicationDebt int  `json:"replication_debt"`
		Warmed          bool `json:"warmed"`
	} `json:"store"`
	// Breakers and Failpoints are filled in by the server (they live
	// outside Metrics); empty maps are elided.
	Breakers   map[string]circuit.Snapshot `json:"breakers,omitempty"`
	Failpoints map[string]FailpointStats   `json:"failpoints,omitempty"`

	SimRuns      int64                        `json:"sim_runs"`
	StageSeconds map[string]HistogramSnapshot `json:"stage_seconds"`
	// EpochStages breaks simulated wall-clock down by per-epoch phase
	// (mapping / thermal / aging) across all runs.
	EpochStages map[string]EpochStageSnapshot `json:"epoch_stages"`
}

// FailpointStats is one armed failpoint's activity, as served on /metrics.
type FailpointStats struct {
	Spec  string `json:"spec"`
	Hits  int64  `json:"hits"`
	Fires int64  `json:"fires"`
}

// Snapshot collects every counter and histogram.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	s.Jobs.Queued = m.JobsQueued.Value()
	s.Jobs.Running = m.JobsRunning.Value()
	s.Jobs.Done = m.JobsDone.Value()
	s.Jobs.Failed = m.JobsFailed.Value()
	s.Jobs.Cancelled = m.JobsCancelled.Value()
	s.Jobs.Coalesced = m.Coalesced.Value()
	s.Cache.Hits = m.CacheHits.Value()
	s.Cache.Misses = m.CacheMisses.Value()
	s.Reliability.Retries = m.Retries.Value()
	s.Reliability.RetryExhausted = m.RetryExhausted.Value()
	s.Reliability.JobsRecovered = m.JobsRecovered.Value()
	s.Reliability.CheckpointWrites = m.CheckpointWrites.Value()
	s.Reliability.CheckpointWriteErrors = m.CheckpointWriteErrors.Value()
	s.Reliability.CheckpointResumes = m.CheckpointResumes.Value()
	s.Reliability.LastResumeEpoch = m.LastResumeEpoch.Value()
	s.Reliability.Quarantined = m.Quarantined.Value()
	s.Reliability.JournalAppendErrors = m.JournalAppendErrors.Value()
	s.Reliability.JournalCorrupt = m.JournalCorrupt.Value()
	s.Reliability.ChipResultsReused = m.ChipResultsReused.Value()
	s.Batch.Flushes = m.BatchFlushes.Value()
	s.Batch.Items = m.BatchItems.Value()
	s.Batch.FsyncsSaved = m.FsyncsSaved.Value()
	s.Batch.Sizes = m.BatchSizes.Snapshot()
	s.Batch.FlushSeconds = m.BatchFlush.Snapshot()
	s.Merkle.Leaves = m.MerkleLeaves.Value()
	s.Merkle.AppendErrors = m.MerkleAppendErrors.Value()
	s.Merkle.Proofs = m.MerkleProofs.Value()
	s.Merkle.ProofErrors = m.MerkleProofErrors.Value()
	s.Merkle.Corrupt = m.MerkleCorrupt.Value()
	s.Admission.Shed = m.JobsShed.Value()
	s.Admission.Evicted = m.JobsEvicted.Value()
	s.Admission.Degraded = m.JobsDegraded.Value()
	s.Admission.RateLimited = m.RateLimited.Value()
	s.Cluster.ForwardAttempts = m.ForwardAttempts.Value()
	s.Cluster.Forwards = m.Forwards.Value()
	s.Cluster.ForwardBusy = m.ForwardBusy.Value()
	s.Cluster.ForwardFailures = m.ForwardFailures.Value()
	s.Cluster.ForwardFallbackLocal = m.ForwardFallbackLocal.Value()
	s.Cluster.Reroutes = m.Reroutes.Value()
	s.Cluster.ChipsForwarded = m.ChipsForwarded.Value()
	s.Cluster.ChipsFetched = m.ChipsFetched.Value()
	s.Cluster.ChipsStolen = m.ChipsStolen.Value()
	s.Cluster.ForwardSeconds = m.ForwardLatency.Snapshot()
	s.Cluster.FetchSeconds = m.RemoteFetch.Snapshot()
	s.Store.HedgedWins = m.StoreHedgedWins.Value()
	s.Store.HedgedLosses = m.StoreHedgedLosses.Value()
	s.Store.ReadRepairs = m.StoreReadRepairs.Value()
	s.Store.Quarantines = m.StoreQuarantines.Value()
	s.Store.ReplicaPuts = m.StoreReplicaPuts.Value()
	s.Store.ReplicaPutErrs = m.StoreReplicaPutErrors.Value()
	s.Store.ReplicaServes = m.StoreReplicaServes.Value()
	s.Store.Sweeps = m.StoreSweeps.Value()
	s.Store.SweepSeconds = m.StoreSweepDur.Snapshot()
	s.SimRuns = m.SimRuns.Value()
	s.StageSeconds = map[string]HistogramSnapshot{
		"queue_wait": m.QueueWait.Snapshot(),
		"setup":      m.Setup.Snapshot(),
		"simulate":   m.Simulate.Snapshot(),
		"encode":     m.Encode.Snapshot(),
		"admission":  m.Admission.Snapshot(),
	}
	s.EpochStages = make(map[string]EpochStageSnapshot, len(sim.Stages()))
	for _, st := range sim.Stages() {
		s.EpochStages[st.String()] = EpochStageSnapshot{
			Count:      m.EpochStageCounts[st].Value(),
			SumSeconds: time.Duration(m.EpochStageNanos[st].Value()).Seconds(),
		}
	}
	return s
}
