// Package service turns the Hayat lifetime-simulation engine into a
// long-running, queryable daemon: a bounded worker pool executes lifetime
// and population jobs, identical requests coalesce singleflight-style
// onto one computation, finished results live in a content-addressed
// cache (hashed over the canonicalised config, seed and policy) and are
// served byte-identical on repeat requests, and running jobs are
// cancellable at epoch boundaries. cmd/hayatd exposes it over HTTP/JSON.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/cluster"
	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/merkle"
	"github.com/kit-ces/hayat/internal/persist"
	"github.com/kit-ces/hayat/internal/store"
)

// Failpoint names on the checkpoint directory's seams.
const (
	fpCheckpointWrite = "service.checkpoint-write"
	fpCheckpointRead  = "service.checkpoint-read"
)

// Job kinds. KindChip is a single-chip job whose canonical result bytes
// are the compact raw simulation blob (what a ChipResultStore holds)
// rather than the indented lifetime record — it is the unit of cluster
// population fan-out and is only reachable through the batch API.
const (
	KindLifetime   = "lifetime"
	KindPopulation = "population"
	KindChip       = "chip"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Sentinel errors surfaced to API callers.
var (
	ErrUnknownJob = errors.New("service: unknown job")
	ErrDraining   = errors.New("service: server is draining")
	ErrQueueFull  = errors.New("service: job queue is full")
)

// Request-size bounds, enforced by validateRequest on every path that
// admits work. Building a System factors a dense spatial covariance over
// 4·Rows·Cols grid points — memory grows with (Rows·Cols)² and time with
// (Rows·Cols)³ — so one oversized grid would exhaust the server's memory
// in code no context reaches. MaxCores admits grids up to 32×32.
// MaxChips bounds a population's per-chip bookkeeping.
const (
	MaxCores = 1024
	MaxChips = 10000
)

// validateRequest is the admission check every work-creating path runs
// on a normalised request — single and population submits, batch items
// and journal recovery — before any System is built.
func validateRequest(req request) error {
	if err := req.Config.Validate(); err != nil {
		return err
	}
	// Validate guarantees Rows, Cols > 0, so the division form cannot
	// overflow: Rows·Cols > MaxCores ⟺ Cols > ⌊MaxCores/Rows⌋.
	if r, c := req.Config.Rows, req.Config.Cols; c > MaxCores/r {
		return fmt.Errorf("service: a %d×%d grid exceeds the %d-core request limit", r, c, MaxCores)
	}
	if req.Kind == KindPopulation && (req.Chips < 1 || req.Chips > MaxChips) {
		return fmt.Errorf("service: population size %d outside [1, %d]", req.Chips, MaxChips)
	}
	return nil
}

// request is the canonical description of one unit of work. Its JSON
// encoding (deterministic struct field order, normalised config and
// policy name) is hashed, with the engine version, into the
// content-addressed cache key.
type request struct {
	Kind   string
	Config hayat.Config
	Policy string
	Seed   int64
	Chips  int
}

// key is the request's content-addressed key under the running engine.
// Store entries, Merkle leaves, replicas, checkpoints and per-chip
// population files are all keyed by it, so a result computed by another
// engine version reads as a miss and is recomputed: it can neither
// answer as a determinism fork nor be resumed.
func (r request) key() string { return r.keyAt(hayat.EngineVersion) }

// keyAt is the request's key under engine version engine. Keys of the
// unversioned engine (version 1, or 0 for "not recorded") hash the
// request alone; later versions hash the version with it.
func (r request) keyAt(engine int) string {
	if engine <= 1 {
		engine = 0
	}
	blob, err := json.Marshal(struct {
		request
		Engine int `json:",omitempty"`
	}{r, engine})
	if err != nil {
		// hayat.Config is plain data; this cannot fail.
		panic(fmt.Sprintf("service: marshalling request: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// NormalizeConfig maps a config onto its canonical form so that requests
// spelling defaults explicitly hash identically to requests omitting
// them.
func NormalizeConfig(cfg hayat.Config) hayat.Config {
	if cfg.DutyMode == "" {
		cfg.DutyMode = "known"
	}
	if cfg.AgingModel == "" {
		cfg.AgingModel = "nbti"
	}
	if len(cfg.FreqLadderGHz) == 0 {
		cfg.FreqLadderGHz = nil
	}
	return cfg
}

// Job is one scheduled simulation. Mutable fields are guarded by the
// server mutex; progress counters are atomics updated from simulation
// workers.
type Job struct {
	id      string
	key     string
	req     request
	state   JobState
	cached  bool
	created time.Time
	started time.Time
	finish  time.Time
	errMsg  string
	// result holds a done job's bytes only when no durable tier has them:
	// results whose disk write failed. Every other done job reads its
	// result through the local store (resultLocked), so finished records
	// do not pin bytes the store already keeps.
	result []byte

	// Admission metadata: fairness identity and absolute deadlines (zero
	// when unset). None of these join the cache key.
	client        string
	deadline      time.Time
	queueDeadline time.Time

	doneChips  atomicMax
	totalChips atomicMax

	// Cluster forwarding: when set, this job is a local tracking shell
	// for work executing on remotePeer as remote. Cleared state is the
	// normal (local-execution) case; a recovered job always runs locally
	// (the peer binding is deliberately not journalled).
	remotePeer string
	remote     *remoteItem

	cancelRun context.CancelFunc
	done      chan struct{}
}

// atomicMax is an int64 that only moves up (progress is monotone even
// when workers report out of order).
type atomicMax struct {
	mu sync.Mutex
	v  int64
}

func (a *atomicMax) raise(v int64) {
	a.mu.Lock()
	if v > a.v {
		a.v = v
	}
	a.mu.Unlock()
}

func (a *atomicMax) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

// Progress is a population job's per-seed completion count.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID         string          `json:"job_id"`
	Key        string          `json:"key"`
	Kind       string          `json:"kind"`
	State      JobState        `json:"state"`
	Cached     bool            `json:"cached"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at,omitempty"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
	Progress   *Progress       `json:"progress,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Options configures a Server. Zero values select defaults.
type Options struct {
	// Workers is the bounded worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker
	// (default 64). A submit that needs new work while the queue is full
	// fails with ErrQueueFull (HTTP 429 with a drain-rate Retry-After).
	// It is the one overload setting: a shorter queue cuts the latency of
	// admitted jobs (DESIGN.md §8).
	QueueDepth int
	// DataDir, when set, persists results as CRC-framed <key>.json for
	// reuse across restarts; corrupt entries are quarantined on read.
	DataDir string
	// JournalPath, when set, write-ahead journals every accepted job so
	// work that was queued or running at a crash is re-enqueued (with its
	// original job ID) when the server restarts.
	JournalPath string
	// CheckpointDir, when set, persists periodic simulation checkpoints
	// so recovered jobs resume from their last checkpoint instead of
	// restarting from epoch zero. Population jobs persist per-chip
	// results there as well.
	CheckpointDir string
	// DefaultDeadline bounds jobs whose submit carries no deadline of its
	// own (queue wait plus simulation). Zero means unbounded.
	DefaultDeadline time.Duration
	// AuditPath, when set, persists the Merkle audit log (one CRC-framed
	// line per terminal result) so inclusion proofs survive restarts.
	// Unset, the audit tree is memory-only: proofs still work but start
	// afresh each boot (cache hits re-seed them).
	AuditPath string
	// Cluster, when its Peers list is non-empty, joins this node to a
	// hayatd cluster: jobs shard across peers by cache key, population
	// chips fan out, and peer health drives ring membership. See
	// ClusterOptions.
	Cluster ClusterOptions
	// Replicas is how many ring successors beyond the owner hold a copy
	// of every terminal result (default 2). Negative disables replication
	// (owner-only, like a single node). Ignored without cluster mode.
	Replicas int
	// AntiEntropyInterval is the cadence of the background store sweep
	// that detects under-replication and divergence and repairs both
	// (default store.DefaultAntiEntropyInterval).
	AntiEntropyInterval time.Duration
	// Logf receives operational log lines (default: discarded).
	Logf func(format string, args ...any)
}

// Server is the lifetime-simulation service.
type Server struct {
	opts  Options
	arts  *hayat.ArtifactCache
	store *store.Replicated
	met   Metrics
	start time.Time
	logf  func(string, ...any)

	jnl    *journal        // nil when journalling is disabled
	audit  *merkle.Log     // always set; memory-only without AuditPath
	router *cluster.Router // nil in single-node mode
	ready  atomic.Bool     // journal replayed + worker pool up

	baseCtx context.Context
	stopAll context.CancelFunc

	adm *admission

	mu       sync.Mutex
	jobs     map[string]*Job
	inflight map[string]*Job // request key → queued/running job
	finished []string        // finished job IDs, oldest first
	draining bool
	nextID   int64

	wg sync.WaitGroup
}

// maxRecords bounds the retained finished-job records; the oldest are
// evicted first. Cached results are unaffected.
const maxRecords = 256

// New starts a server with its worker pool running.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	disk, err := store.OpenDisk(opts.DataDir)
	if err != nil {
		return nil, fmt.Errorf("service: creating data dir: %w", err)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: creating checkpoint dir: %w", err)
		}
	}

	var (
		jnl     *journal
		pending []journalEntry
		corrupt int
	)
	if opts.JournalPath != "" {
		var jerr error
		jnl, pending, corrupt, jerr = openJournal(opts.JournalPath)
		if jerr != nil {
			return nil, jerr
		}
	}
	audit, auditCorrupt, err := merkle.OpenLog(opts.AuditPath, merkle.DefaultSegmentLeaves)
	if err != nil {
		return nil, err
	}

	//lint:ignore ctxfirst server root context: it outlives any request and is cancelled by Shutdown/stopAll
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		arts:     hayat.NewArtifactCache(),
		store:    store.NewReplicated(nil, disk),
		start:    time.Now(),
		logf:     logf,
		jnl:      jnl,
		audit:    audit,
		baseCtx:  ctx,
		stopAll:  cancel,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		adm:      newAdmission(opts.QueueDepth),
	}
	s.met.JournalCorrupt.Add(int64(corrupt))
	if corrupt > 0 {
		s.logf("service: journal replay skipped %d corrupt line(s)", corrupt)
	}
	s.met.MerkleLeaves.Add(int64(audit.Stats().Leaves))
	s.met.MerkleCorrupt.Add(int64(auditCorrupt))
	if auditCorrupt > 0 {
		s.logf("service: audit replay skipped %d corrupt line(s)", auditCorrupt)
	}
	router, err := newRouter(opts, logf)
	if err != nil {
		cancel()
		return nil, err
	}
	s.router = router
	s.wireStore()
	s.recover(pending)
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.router != nil {
		s.router.Start(ctx)
		s.logf("service: cluster mode: self=%s peers=%v", s.router.Self(), s.router.Peers())
	}
	s.store.Start(ctx, opts.AntiEntropyInterval)
	s.ready.Store(true)
	return s, nil
}

// wireStore attaches the result store to this server: the Merkle audit
// becomes the verify-on-read authority, store events feed /metrics, and
// — in cluster mode — the ring supplies replica sets and the router
// carries envelopes between peers.
func (s *Server) wireStore() {
	o := store.Options{
		Verify: s.verifyStored,
		Obs: store.Obs{
			Quarantine: func() {
				s.met.Quarantined.Add(1)
				s.met.StoreQuarantines.Add(1)
			},
			ReadRepair:    func() { s.met.StoreReadRepairs.Add(1) },
			ReplicaPut:    func() { s.met.StoreReplicaPuts.Add(1) },
			ReplicaPutErr: func() { s.met.StoreReplicaPutErrors.Add(1) },
			Sweep: func(d time.Duration) {
				s.met.StoreSweeps.Add(1)
				s.met.StoreSweepDur.Observe(d)
			},
		},
		Logf: s.logf,
	}
	if s.router != nil && s.opts.Replicas >= 0 {
		replicas := s.opts.Replicas
		if replicas == 0 {
			replicas = DefaultReplicas
		}
		o.Self = s.router.Self()
		o.Copies = replicas + 1
		o.ReplicaSet = s.router.ReplicaSet
		o.Transport = s.router
	}
	s.store.Configure(o)
}

// DefaultReplicas is how many copies beyond the owner each terminal
// result gets when Options.Replicas is zero.
const DefaultReplicas = 2

// verifyStored checks stored bytes against the Merkle audit: a key the
// audit knows must hash to its recorded leaf. Unknown keys pass — the
// audit may trail the cache (memory-only audit after a restart).
func (s *Server) verifyStored(key string, data []byte) error {
	if leaf, ok := s.audit.Leaf(key); ok && merkle.LeafHash(data) != leaf {
		return errDiverged(key)
	}
	return nil
}

// errDiverged reports stored bytes that do not hash to key's audit leaf.
func errDiverged(key string) error {
	return fmt.Errorf("service: stored bytes for %s diverge from audit leaf", key)
}

// replicateResult fans a terminal result out to its replica set. Runs
// synchronously on the worker goroutine after the job flips terminal:
// clients already have their answer; a slow or down peer only delays
// this worker, and an unreachable one becomes replication debt.
func (s *Server) replicateResult(key string, data []byte) {
	if s.router == nil {
		return
	}
	s.store.Replicate(s.baseCtx, key, data)
}

// recover re-enqueues the jobs the previous process left pending, keeping
// their original IDs so clients can keep polling across the restart. Jobs
// whose result landed in the cache before the crash complete immediately;
// duplicate keys (which a healthy journal never contains) coalesce onto
// the first entry.
func (s *Server) recover(pending []journalEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range pending {
		if e.Req.keyAt(e.Engine) != e.Key {
			// The journal's stored key disagrees with the request it
			// carries: treat the record as corrupt rather than run the
			// wrong work under a cached identity.
			s.met.JournalCorrupt.Add(1)
			s.recordTerminal(opFailed, e.ID)
			continue
		}
		if err := validateRequest(e.Req); err != nil {
			// Journalled under older validation rules: an oversized
			// request would exhaust memory again on every restart.
			s.logf("service: dropping recovered %s: %v", e.ID, err)
			s.recordTerminal(opFailed, e.ID)
			continue
		}
		if e.Engine != hayat.EngineVersion {
			// Journalled by another engine: its key names that engine's
			// result. Run the request under this engine's key, keeping
			// the job's ID.
			e.Key = e.Req.key()
			s.logf("service: re-keyed %s from engine version %d to %d", e.ID, e.Engine, hayat.EngineVersion)
		}
		var n int64
		if _, err := fmt.Sscanf(e.ID, "job-%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
		if _, dup := s.inflight[e.Key]; dup {
			s.recordTerminal(opCancelled, e.ID)
			continue
		}
		j := s.newJobLocked(e)
		if data, ok := s.store.GetLocal(e.Key); ok {
			// The result was published before the crash; only the
			// journal's terminal record was lost.
			j.cached = true
			s.finishLocked(j, JobDone, "", true)
			s.met.CacheHits.Add(1)
			s.auditResult(e.Key, data)
			continue
		}
		s.adm.enqueue(j, true) // force: recovered jobs bypass the capacity check
		s.inflight[e.Key] = j
		s.met.JobsQueued.Add(1)
		s.met.JobsRecovered.Add(1)
		s.logf("service: recovered %s %s from journal", e.Req.Kind, e.ID)
	}
}

// recordTerminal journals a terminal op, folding append failures into the
// metrics instead of surfacing them (the journal is a durability aid, not
// a correctness dependency once the job has an in-memory record).
func (s *Server) recordTerminal(op, id string) {
	if err := s.jnl.terminal(op, id); err != nil {
		s.met.JournalAppendErrors.Add(1)
		s.logf("service: %v", err)
	}
}

// Metrics exposes the server's counters (also served on GET /metrics).
func (s *Server) Metrics() *Metrics { return &s.met }

// SubmitLifetimeWith schedules (or coalesces, or answers from cache) a
// single-chip lifetime simulation and returns the job's status. The
// options carry a client identity for fair scheduling and a
// deadline/queue-TTL.
func (s *Server) SubmitLifetimeWith(cfg hayat.Config, seed int64, policy string, o SubmitOpts) (JobStatus, error) {
	return s.submit(request{Kind: KindLifetime, Config: cfg, Policy: policy, Seed: seed, Chips: 1}, o, true)
}

// SubmitPopulationWith schedules a population fan-out over seeds
// baseSeed…baseSeed+chips−1 with per-seed progress reporting, under the
// given admission options.
func (s *Server) SubmitPopulationWith(cfg hayat.Config, baseSeed int64, chips int, policy string, o SubmitOpts) (JobStatus, error) {
	return s.submit(request{Kind: KindPopulation, Config: cfg, Policy: policy, Seed: baseSeed, Chips: chips}, o, true)
}

// submission is one validated submit in canonical form: the request,
// its content-addressed key and the admission options that travel with
// it. Single submits and batch items alike reach admission as one.
type submission struct {
	req  request
	key  string
	opts SubmitOpts
}

// newSubmission canonicalises and validates a request and bounds its
// client name. The cache key deliberately excludes the admission options
// (client, deadlines): the same work coalesces and cache-hits regardless
// of who asks or how patient they are.
func newSubmission(req request, o SubmitOpts) (submission, error) {
	if len(o.Client) > maxClientName {
		return submission{}, fmt.Errorf("service: a %d-byte client name exceeds the %d-byte limit", len(o.Client), maxClientName)
	}
	pol, err := hayat.ParsePolicy(req.Policy)
	if err != nil {
		return submission{}, err
	}
	req.Policy = pol.String() // canonical spelling for the cache key
	req.Config = NormalizeConfig(req.Config)
	if err := validateRequest(req); err != nil {
		return submission{}, err
	}
	return submission{req: req, key: req.key(), opts: o}, nil
}

// submit admits one single submit. In cluster mode a lifetime whose key
// a remote peer owns is forwarded there when mayForward is set; a failed
// forward submits again with it cleared, to run here.
func (s *Server) submit(req request, o SubmitOpts, mayForward bool) (JobStatus, error) {
	admitStart := time.Now()
	defer func() { s.met.Admission.Observe(time.Since(admitStart)) }()

	sub, err := newSubmission(req, o)
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	if j, data, err := s.settleLocked(sub); j != nil || err != nil {
		var st JobStatus
		if j != nil {
			st = s.statusLocked(j, false)
		}
		s.mu.Unlock()
		if data != nil {
			// Attach the bytes just read rather than looking them up
			// again. Self-healing: if this result's audit leaf was lost
			// to a crash, serving it re-records it (idempotent otherwise).
			st.Result = json.RawMessage(data)
			s.auditResult(sub.key, data)
		}
		return st, err
	}
	// Cluster mode: a key owned by a healthy remote peer forwards there as
	// a one-item batch, which the owner never forwards again, so a job
	// makes one hop even under divergent ring views. The owner's queue
	// admits it, not this node's.
	if mayForward && s.router != nil && req.Kind == KindLifetime {
		if owner, local := s.router.Owner(sub.key); !local {
			s.mu.Unlock()
			if st, handled, ferr := s.forward(sub, owner); handled {
				return st, ferr
			}
			// The forward failed after retries: degrade to local execution.
			// Content-addressed results make this always correct — the only
			// cost is a cache entry living on the "wrong" node.
			s.met.ForwardFallbackLocal.Add(1)
			return s.submit(req, o, false)
		}
	}
	j, err := s.enqueueLocked(sub)
	if err != nil {
		s.mu.Unlock()
		return JobStatus{}, err
	}
	s.journalAcceptedLocked([]*Job{j})
	st := s.statusLocked(j, false)
	s.mu.Unlock()
	return st, nil
}

// settleLocked answers a submission that needs no new work. It coalesces
// onto the key's queued or running job, or answers from the local store
// with a terminal cached job, returning the bytes so the caller can
// re-record their audit leaf after unlocking. While draining, anything
// else fails with ErrDraining. A nil job and error mean the submission
// needs a new job.
func (s *Server) settleLocked(sub submission) (*Job, []byte, error) {
	if j, ok := s.inflight[sub.key]; ok {
		s.met.Coalesced.Add(1)
		return j, nil, nil
	}
	if data, ok := s.store.GetLocal(sub.key); ok {
		s.met.CacheHits.Add(1)
		j := s.submitJobLocked(sub)
		j.cached = true
		s.finishLocked(j, JobDone, "", false)
		return j, data, nil
	}
	if s.draining {
		return nil, nil, ErrDraining
	}
	return nil, nil, nil
}

// enqueueLocked queues a new job for sub, or returns the admission
// error (queue full, draining) and leaves no job behind.
func (s *Server) enqueueLocked(sub submission) (*Job, error) {
	s.met.CacheMisses.Add(1)
	j := s.submitJobLocked(sub)
	if err := s.adm.enqueue(j, false); err != nil {
		delete(s.jobs, j.id)
		return nil, err
	}
	s.inflight[sub.key] = j
	s.met.JobsQueued.Add(1)
	return j, nil
}

// journalAcceptedLocked is the write-ahead half of admission: the jobs
// one request accepted are journalled with one write and one fsync
// before the request is answered, so an accepted job survives a crash.
// An append failure degrades durability, not availability.
func (s *Server) journalAcceptedLocked(jobs []*Job) {
	if s.jnl == nil || len(jobs) == 0 {
		return
	}
	recs := make([]journalRecord, len(jobs))
	for i, j := range jobs {
		recs[i] = submitRecord(j)
	}
	if err := s.jnl.append(recs, true); err != nil {
		s.met.JournalAppendErrors.Add(1)
		s.logf("service: %v", err)
		return
	}
	s.met.FsyncsSaved.Add(int64(len(recs) - 1))
}

// newJobLocked is the one job constructor: it registers a queued job for
// e. Journal recovery passes the journalled entry with its ID and
// absolute deadlines; submits come through submitJobLocked.
func (s *Server) newJobLocked(e journalEntry) *Job {
	client := e.Client
	if client == "" {
		client = defaultClient
	}
	j := &Job{
		id:            e.ID,
		key:           e.Key,
		req:           e.Req,
		state:         JobQueued,
		created:       time.Now(),
		done:          make(chan struct{}),
		client:        client,
		deadline:      e.Deadline,
		queueDeadline: e.QueueDeadline,
	}
	if e.Req.Kind == KindPopulation {
		j.totalChips.raise(int64(e.Req.Chips))
	}
	s.jobs[j.id] = j
	return j
}

// submitJobLocked registers a submitted job under the next ID, its
// deadline (the submit's own, else Options.DefaultDeadline) and queue
// TTL counted from now.
func (s *Server) submitJobLocked(sub submission) *Job {
	s.nextID++
	e := journalEntry{ID: fmt.Sprintf("job-%06d", s.nextID), Key: sub.key, Req: sub.req, Client: sub.opts.Client}
	now := time.Now()
	dl := sub.opts.Deadline
	if dl <= 0 {
		dl = s.opts.DefaultDeadline
	}
	if dl > 0 {
		e.Deadline = now.Add(dl)
	}
	if sub.opts.QueueTTL > 0 {
		e.QueueDeadline = now.Add(sub.opts.QueueTTL)
	}
	return s.newJobLocked(e)
}

// finishLocked turns j terminal: its state, error and finish time are
// set, its key is freed for new work, waiters wake and the record joins
// the eviction queue. journal writes the terminal record, for jobs whose
// submit the journal holds; cache-hit answers never had one.
func (s *Server) finishLocked(j *Job, state JobState, errMsg string, journal bool) {
	j.state, j.errMsg, j.finish = state, errMsg, time.Now()
	if state == JobDone && j.started.IsZero() {
		j.started = j.finish // answered without running
	}
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	close(j.done)
	s.rememberFinishedLocked(j)
	if journal {
		s.recordTerminal(terminalOp[state], j.id)
	}
}

// rememberFinishedLocked appends a terminal job to the eviction queue and
// drops the oldest records beyond maxRecords.
func (s *Server) rememberFinishedLocked(j *Job) {
	s.finished = append(s.finished, j.id)
	for len(s.finished) > maxRecords {
		victim := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, victim)
	}
}

// Status returns a job snapshot; the (possibly large) result payload is
// attached only when includeResult is set.
func (s *Server) Status(id string, includeResult bool) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return s.statusLocked(j, includeResult), nil
}

func (s *Server) statusLocked(j *Job, includeResult bool) JobStatus {
	st := JobStatus{
		ID:        j.id,
		Key:       j.key,
		Kind:      j.req.Kind,
		State:     j.state,
		Cached:    j.cached,
		CreatedAt: j.created,
		Error:     j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finish.IsZero() {
		t := j.finish
		st.FinishedAt = &t
	}
	if j.req.Kind == KindPopulation {
		st.Progress = &Progress{Done: int(j.doneChips.load()), Total: int(j.totalChips.load())}
	}
	if includeResult && j.state == JobDone {
		if data, ok := s.resultLocked(j); ok {
			st.Result = json.RawMessage(data)
		}
	}
	return st
}

// resultLocked returns a done job's result bytes: the record's own copy
// when the bytes never reached a durable tier, else the local store's. A
// stored copy quarantined since the job finished reads as a miss.
func (s *Server) resultLocked(j *Job) ([]byte, bool) {
	if j.result != nil {
		return j.result, true
	}
	return s.store.GetLocal(j.key)
}

// Result returns a done job's canonical result bytes — the exact bytes
// its Merkle audit leaf covers. The JSON status envelope re-indents
// embedded results, so provenance verification must read this surface
// (GET /v1/jobs/{id}/result) rather than the status payload.
func (s *Server) Result(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	if j.state != JobDone {
		return nil, fmt.Errorf("service: job %s is %s, not done", id, j.state)
	}
	data, ok := s.resultLocked(j)
	if !ok {
		return nil, fmt.Errorf("service: job %s's stored result is gone (quarantined); resubmit the request to recompute it", id)
	}
	return data, nil
}

// Wait blocks until the job reaches a terminal state (returning its full
// status, result included) or ctx is cancelled.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		return s.Status(id, true)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Cancel aborts a job: a queued job is marked cancelled immediately and
// gives up its queue slot, a running job has its context cancelled and
// stops at the next epoch boundary. Cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownJob
	}
	switch j.state {
	case JobQueued:
		s.adm.remove(j)
		s.finishLocked(j, JobCancelled, "cancelled while queued", true)
		s.met.JobsCancelled.Add(1)
		s.mu.Unlock()
		return nil
	case JobRunning:
		cancel := j.cancelRun
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		s.mu.Unlock()
		return nil
	}
}

// Shutdown drains the server: no new jobs are accepted, queued and
// running jobs are given until ctx expires to complete, then the
// remaining ones are cancelled at their next epoch boundary. Blocks until
// all workers have exited; safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.adm.close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	//lint:ignore goroutine-hygiene joined via the done channel: both select arms below wait for it before returning
	go func() {
		s.wg.Wait()
		close(done)
	}()
	finish := func() {
		s.store.Close()
		if s.router != nil {
			s.router.Close()
		}
		s.jnl.Close()
		if err := s.audit.Close(); err != nil {
			s.logf("service: %v", err)
		}
	}
	select {
	case <-done:
		finish()
		return nil
	case <-ctx.Done():
		s.logf("service: drain deadline reached, cancelling in-flight jobs")
		s.stopAll()
		<-done
		finish()
		return ctx.Err()
	}
}

// auditResult hashes a terminal result into the Merkle provenance tree,
// keyed by the content-addressed request key. Idempotent — the cache
// guarantees one result per key, so replays and cache hits land on the
// existing leaf, and a key the audit already holds is not hashed again.
// A persistence failure keeps the in-memory leaf (proofs still serve)
// and is only counted.
func (s *Server) auditResult(key string, result []byte) {
	if _, ok := s.audit.Leaf(key); ok {
		return
	}
	_, added, err := s.audit.Append(key, merkle.LeafHash(result))
	if err != nil {
		s.met.MerkleAppendErrors.Add(1)
		s.logf("service: %v", err)
	}
	if added {
		s.met.MerkleLeaves.Add(1)
	}
}

// ProofResponse is the body of GET /v1/jobs/{id}/proof: everything a
// client needs to check — offline — that the result bytes it holds are
// the ones the server recorded, via merkle.Verify(Proof, resultBytes,
// root). Root is the hex head of the job's audit segment.
type ProofResponse struct {
	JobID   string       `json:"job_id"`
	Key     string       `json:"key"`
	Segment int          `json:"segment"`
	Root    string       `json:"segment_root"`
	Proof   merkle.Proof `json:"proof"`
}

// Proof returns the inclusion proof for a finished job's result.
func (s *Server) Proof(id string) (ProofResponse, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var (
		key   string
		state JobState
	)
	if ok {
		key, state = j.key, j.state
	}
	s.mu.Unlock()
	switch {
	case !ok:
		s.met.MerkleProofErrors.Add(1)
		return ProofResponse{}, ErrUnknownJob
	case state != JobDone:
		s.met.MerkleProofErrors.Add(1)
		return ProofResponse{}, fmt.Errorf("service: job %s is %s; proofs exist only for done jobs", id, state)
	}
	p, ref, root, err := s.audit.Prove(key)
	if err != nil {
		s.met.MerkleProofErrors.Add(1)
		return ProofResponse{}, err
	}
	s.met.MerkleProofs.Add(1)
	return ProofResponse{
		JobID:   id,
		Key:     key,
		Segment: ref.Segment,
		Root:    hex.EncodeToString(root[:]),
		Proof:   p,
	}, nil
}

// AuditStats snapshots the provenance log's shape (for /metrics).
func (s *Server) AuditStats() merkle.Stats { return s.audit.Stats() }

// Uptime reports how long the server has been running.
func (s *Server) Uptime() time.Duration { return time.Since(s.start) }

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.adm.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

func (s *Server) runJob(j *Job) {
	now := time.Now()
	s.mu.Lock()
	if j.state != JobQueued { // cancelled while waiting in the queue
		s.mu.Unlock()
		return
	}
	if reason, exp := j.expired(now); exp {
		// Lazy eviction: an expired job is retired at pop time and never
		// reaches the engine.
		s.finishLocked(j, JobCancelled, reason, true)
		s.met.JobsEvicted.Add(1)
		s.met.JobsCancelled.Add(1)
		s.mu.Unlock()
		return
	}
	// The deadline covers queue wait plus simulation, so what remains of
	// it becomes the run context's deadline.
	var (
		runCtx context.Context
		cancel context.CancelFunc
	)
	if !j.deadline.IsZero() {
		runCtx, cancel = context.WithDeadline(s.baseCtx, j.deadline)
	} else {
		runCtx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()
	j.state = JobRunning
	j.started = now
	j.cancelRun = cancel
	s.mu.Unlock()
	s.met.JobsRunning.Add(1)
	s.met.QueueWait.Observe(j.started.Sub(j.created))

	var (
		data      []byte
		err       error
		simulated bool
	)
	if j.remote != nil {
		// A tracking job: its owner runs it. When the owner (and the one
		// re-route) fails, a worker slot runs it here instead.
		if data = s.awaitForwarded(runCtx, j); data == nil {
			if s.requeueLocal(runCtx, j) {
				return
			}
			err = runCtx.Err()
		}
	} else if data = s.replicaCopy(runCtx, j); data == nil {
		data, err = s.execute(runCtx, j)
		simulated = true
	}
	var unstored []byte // the result, if no durable tier took it
	if err == nil {
		// Publish to the cache before the job turns terminal so an
		// identical request arriving right after completion hits it.
		if perr := s.store.PutLocal(j.key, data); perr != nil {
			s.logf("service: persisting result %s: %v", j.key, perr)
			unstored = data
		} else {
			// The result is durable in the store, so the recovery
			// artifacts have served their purpose. They go before the
			// job turns done: a client that sees done never finds them.
			s.cleanupArtifacts(j.key)
		}
		// Every terminal result is hashed into the provenance tree before
		// the job flips to done, so a proof is retrievable the moment the
		// result is.
		s.auditResult(j.key, data)
	}

	s.mu.Lock()
	j.cancelRun = nil
	switch {
	case err == nil:
		j.result = unstored
		s.met.JobsDone.Add(1)
		s.finishLocked(j, JobDone, "", true)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.met.JobsCancelled.Add(1)
		s.finishLocked(j, JobCancelled, err.Error(), true)
	default:
		s.met.JobsFailed.Add(1)
		s.finishLocked(j, JobFailed, err.Error(), true)
	}
	s.mu.Unlock()
	s.met.JobsRunning.Add(-1)
	switch {
	case err != nil:
		s.logf("service: %s %s: %v", j.req.Kind, j.id, err)
	case simulated:
		// Replicas get their copies now, after clients can already read
		// the answer. Bytes fetched from the owner or a replica came from
		// a node that holds them already and replicated them itself.
		s.replicateResult(j.key, data)
	}
}

// replicaCopy returns a Merkle-verifying copy of j's result that one of
// the key's replicas holds, or nil. Before recomputing, reading the
// replicas in ring order is far cheaper than a simulation. Population
// results are skipped — their payloads lack the per-seed shape
// remoteResultValid can vet.
func (s *Server) replicaCopy(ctx context.Context, j *Job) []byte {
	if j.req.Kind == KindPopulation || ctx.Err() != nil {
		return nil
	}
	data, ok := s.store.FetchReplica(ctx, j.key)
	if !ok || !remoteResultValid(j.req, data) {
		return nil
	}
	s.logf("service: %s served from replica copy of %s", j.id, j.key[:12])
	return data
}

// execute runs the simulation for one job under its context. A
// simulation is deterministic in its request, so a failure fails the
// job: running it again would fail the same way.
func (s *Server) execute(ctx context.Context, j *Job) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		// Already cancelled (typically a shutdown draining a deep queue):
		// don't spend seconds building a chip only to throw it away.
		return nil, err
	}
	pol, err := hayat.ParsePolicy(j.req.Policy)
	if err != nil {
		return nil, err
	}
	setupStart := time.Now()
	sys, err := hayat.NewSystemWith(j.req.Config, s.arts)
	if err != nil {
		return nil, err
	}
	// The epoch-stage observer times execution and never influences
	// results, so it is set on the job's System, outside the key.
	sys.SetStageObserver(s.met.ObserveStage)

	var buf bytes.Buffer
	switch j.req.Kind {
	case KindLifetime, KindChip:
		chip, err := sys.NewChip(j.req.Seed)
		if err != nil {
			return nil, err
		}
		s.met.Setup.Observe(time.Since(setupStart))
		simStart := time.Now()
		s.met.SimRuns.Add(1)
		res, err := s.runLifetime(ctx, j, chip, pol)
		if err != nil {
			return nil, err
		}
		s.met.Simulate.Observe(time.Since(simStart))
		encStart := time.Now()
		if j.req.Kind == KindChip {
			// Chip jobs publish the compact raw simulation blob — the bytes
			// a population coordinator's ChipResultStore consumes verbatim.
			data, cerr := res.ChipJSON()
			if cerr != nil {
				return nil, cerr
			}
			buf.Write(data)
		} else if err := res.WriteJSON(&buf); err != nil {
			return nil, err
		}
		s.met.Encode.Observe(time.Since(encStart))
	case KindPopulation:
		s.met.Setup.Observe(time.Since(setupStart))
		simStart := time.Now()
		s.met.SimRuns.Add(1)
		// Cluster mode: shard the chips across up peers; remote chips arrive
		// through the store, and any that don't are stolen back and
		// simulated locally — byte-identical either way.
		store := s.chipStore(j.key)
		if s.router != nil {
			if cst, cleanup := s.newClusterPopStore(ctx, j, store); cst != nil {
				defer cleanup()
				store = cst
			}
		}
		pr, err := sys.RunPopulationContext(ctx, j.req.Seed, j.req.Chips, pol,
			func(done, total int) { j.doneChips.raise(int64(done)) },
			store)
		if err != nil {
			return nil, err
		}
		s.met.Simulate.Observe(time.Since(simStart))
		encStart := time.Now()
		if err := pr.WriteJSON(&buf); err != nil {
			return nil, err
		}
		s.met.Encode.Observe(time.Since(encStart))
	default:
		return nil, fmt.Errorf("service: unknown job kind %q", j.req.Kind)
	}
	// An exact-size copy: the buffer's spare capacity would otherwise stay
	// pinned for as long as the result is held.
	return bytes.Clone(buf.Bytes()), nil
}

// runLifetime runs one chip's lifetime with checkpointing when a
// checkpoint directory is configured: an existing checkpoint for the
// job's key resumes the run; checkpoints keep being persisted at every
// workload-remix boundary. A missing, unreadable, corrupt or stale
// checkpoint falls back to a fresh run from epoch zero.
func (s *Server) runLifetime(ctx context.Context, j *Job, chip *hayat.Chip, pol hayat.Policy) (*hayat.LifetimeResult, error) {
	if s.opts.CheckpointDir == "" {
		return chip.RunLifetimeContext(ctx, pol)
	}
	path := s.ckptPath(j.key)
	sink := s.checkpointSink(path)
	from, err := s.readArtifact(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.logf("service: %s checkpoint unreadable (%v), restarting from epoch 0", j.id, err)
	}
	res, err := chip.RunLifetimeWithCheckpoints(ctx, pol, from, 0, sink)
	if from == nil {
		return res, err
	}
	if err == nil {
		s.met.CheckpointResumes.Add(1)
		if ep, ok := checkpointEpoch(from); ok {
			s.met.LastResumeEpoch.Store(int64(ep))
		}
		s.logf("service: %s resumed from checkpoint %s", j.id, filepath.Base(path))
		return res, nil
	}
	// Injected faults and cancellations fail the job; only a genuinely
	// unusable checkpoint is discarded in favour of a fresh run.
	if errors.Is(err, faultinject.ErrInjected) || ctx.Err() != nil {
		return nil, err
	}
	s.logf("service: %s checkpoint unusable (%v), restarting from epoch 0", j.id, err)
	return chip.RunLifetimeWithCheckpoints(ctx, pol, nil, 0, sink)
}

// checkpointSink persists checkpoints best-effort: a failed write is
// logged and counted but never aborts the simulation — the run skips
// that checkpoint and writes a fresher one at the next remix boundary.
func (s *Server) checkpointSink(path string) hayat.CheckpointSink {
	return func(nextEpoch int, data []byte) error {
		if err := s.writeArtifact(path, data); err != nil {
			s.logf("service: checkpoint at epoch %d: %v (simulation continues)", nextEpoch, err)
		}
		return nil
	}
}

// checkpointEpoch peeks at a serialised checkpoint's resume epoch.
func checkpointEpoch(data []byte) (int, bool) {
	var peek struct {
		NextEpoch int `json:"next_epoch"`
	}
	if err := json.Unmarshal(data, &peek); err != nil {
		return 0, false
	}
	return peek.NextEpoch, true
}

// readArtifact reads a checkpoint-directory file — a lifetime checkpoint
// or a population chip result — and returns its payload. Both are
// CRC-framed, so a value altered on disk is never resumed or reused: a
// file that fails its frame check is quarantined (and counted) and reads
// as an error, like a missing file or a faulted read.
func (s *Server) readArtifact(path string) ([]byte, error) {
	payload, quarantined, err := persist.ReadFramed(path, fpCheckpointRead, nil)
	if quarantined {
		s.met.Quarantined.Add(1)
	}
	return payload, err
}

// writeArtifact persists payload CRC-framed and atomically, counting the
// write or its failure. Callers treat a failure as best-effort: the
// simulation goes on without the file.
func (s *Server) writeArtifact(path string, payload []byte) error {
	if err := persist.WriteFramed(path, payload, fpCheckpointWrite); err != nil {
		s.met.CheckpointWriteErrors.Add(1)
		return err
	}
	s.met.CheckpointWrites.Add(1)
	return nil
}

// ckptPath is the job key's checkpoint file.
func (s *Server) ckptPath(key string) string {
	return filepath.Join(s.opts.CheckpointDir, key+".ckpt")
}

// cleanupArtifacts removes a finished job's checkpoint and per-chip
// result files (best-effort).
func (s *Server) cleanupArtifacts(key string) {
	if s.opts.CheckpointDir == "" || !store.ValidKey(key) {
		return
	}
	os.Remove(s.ckptPath(key))
	if matches, err := filepath.Glob(filepath.Join(s.opts.CheckpointDir, key+".chip-*.json")); err == nil {
		for _, m := range matches {
			os.Remove(m)
		}
	}
}

// chipStore returns the per-chip result store backing a population job's
// resume, or nil when checkpointing is disabled.
func (s *Server) chipStore(key string) hayat.ChipResultStore {
	if s.opts.CheckpointDir == "" {
		return nil
	}
	return &chipStore{s: s, key: key}
}

// chipStore persists each completed population chip as a CRC-framed
// <key>.chip-<seed>.json so a recovered population job skips finished
// chips. Writes are best-effort; corrupt files are quarantined and
// recomputed.
type chipStore struct {
	s   *Server
	key string
}

func (c *chipStore) path(seed int64) string {
	return filepath.Join(c.s.opts.CheckpointDir, fmt.Sprintf("%s.chip-%d.json", c.key, seed))
}

func (c *chipStore) Load(seed int64) ([]byte, bool) {
	data, err := c.s.readArtifact(c.path(seed))
	if err != nil {
		return nil, false // a miss: recompute the chip
	}
	c.s.met.ChipResultsReused.Add(1)
	return data, true
}

func (c *chipStore) Save(seed int64, data []byte) error {
	if err := c.s.writeArtifact(c.path(seed), data); err != nil {
		c.s.logf("service: persisting chip %d result: %v", seed, err)
	}
	return nil // best-effort: the population run must not fail for this
}
