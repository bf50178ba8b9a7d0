package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/batch"
)

// maxBatchItems bounds one POST /v1/batch request; larger batches should
// be split by the client (the server re-batches internally anyway).
const maxBatchItems = 1024

// BatchItem is one submission inside POST /v1/batch. It mirrors the
// single-submit bodies: kind selects lifetime (default) or population,
// seed is the chip seed (base seed for populations), chips the population
// size. Wait and DegradedOK are deliberately absent — batch submits are
// fire-and-poll, and degraded answers require per-item simulation that
// would defeat the single admission pass.
type BatchItem struct {
	Kind       string          `json:"kind,omitempty"`
	Config     json.RawMessage `json:"config,omitempty"`
	Seed       int64           `json:"seed"`
	Chips      int             `json:"chips,omitempty"`
	Policy     string          `json:"policy"`
	Client     string          `json:"client,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
	QueueTTLMS int64           `json:"queue_ttl_ms,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItemResult is one item's outcome. The enclosing response is
// always HTTP 200 once the request itself decodes; acceptance is
// per-item ("200 with mixed results"): Status carries the code the same
// submission would have received on the single-job endpoint (202
// accepted, 200 cache hit/coalesced onto a finished job, 400 invalid,
// 429 shed or rate-limited with RetryAfterS, 503 draining).
type BatchItemResult struct {
	Index       int        `json:"index"`
	Accepted    bool       `json:"accepted"`
	Status      int        `json:"status"`
	Job         *JobStatus `json:"job,omitempty"`
	Error       string     `json:"error,omitempty"`
	RetryAfterS int        `json:"retry_after_s,omitempty"`
}

// BatchResponse is the body answering POST /v1/batch: one result per
// item, in item order.
type BatchResponse struct {
	Results  []BatchItemResult `json:"results"`
	Accepted int               `json:"accepted"`
	Rejected int               `json:"rejected"`
}

// batchSubmission is one validated item travelling through the batcher.
type batchSubmission struct {
	req  request
	key  string
	opts SubmitOpts
}

// batchSubmissionFromItem validates one batch item into its canonical
// submission without touching any server state — it is pure, so the
// decode fuzzer can drive it directly.
func batchSubmissionFromItem(it BatchItem) (batchSubmission, error) {
	kind := it.Kind
	if kind == "" {
		kind = KindLifetime
	}
	chips := 1
	switch kind {
	case KindLifetime:
		if it.Chips > 1 {
			return batchSubmission{}, fmt.Errorf("chips is a population field (got %d for a lifetime item)", it.Chips)
		}
	case KindChip:
		if it.Chips > 1 {
			return batchSubmission{}, fmt.Errorf("chip items are single-chip (got chips=%d)", it.Chips)
		}
	case KindPopulation:
		chips = it.Chips
	default:
		return batchSubmission{}, fmt.Errorf("unknown kind %q", it.Kind)
	}
	pol, err := hayat.ParsePolicy(it.Policy)
	if err != nil {
		return batchSubmission{}, err
	}
	cfg, err := decodeConfig(it.Config)
	if err != nil {
		return batchSubmission{}, err
	}
	req := request{Kind: kind, Config: NormalizeConfig(cfg), Policy: pol.String(), Seed: it.Seed, Chips: chips}
	if err := validateRequest(req); err != nil {
		return batchSubmission{}, err
	}
	return batchSubmission{
		req: req,
		key: req.key(),
		opts: SubmitOpts{
			Client:   it.Client,
			Deadline: time.Duration(it.DeadlineMS) * time.Millisecond,
			QueueTTL: time.Duration(it.QueueTTLMS) * time.Millisecond,
		},
	}, nil
}

// SubmitBatch pushes every valid item through the batcher (invalid ones
// are answered inline with a 400 result) and waits for all per-item
// outcomes. The batcher coalesces concurrent callers, so N items cost
// one admission pass and one journal fsync per flush, not N.
func (s *Server) SubmitBatch(ctx context.Context, items []BatchItem) ([]BatchItemResult, error) {
	if len(items) == 0 {
		return nil, errors.New("service: batch has no items")
	}
	if len(items) > maxBatchItems {
		return nil, fmt.Errorf("service: batch of %d items exceeds the %d-item limit", len(items), maxBatchItems)
	}
	results := make([]BatchItemResult, len(items))
	chans := make([]<-chan BatchItemResult, len(items))
	for i, it := range items {
		sub, err := batchSubmissionFromItem(it)
		if err != nil {
			results[i] = BatchItemResult{Index: i, Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		ch, serr := s.bat.Submit(ctx, sub)
		if serr != nil {
			if errors.Is(serr, batch.ErrClosed) {
				results[i] = BatchItemResult{Index: i, Status: http.StatusServiceUnavailable,
					Error: ErrDraining.Error(), RetryAfterS: drainingRetryAfter}
				continue
			}
			// The caller's context died while backpressured; items already
			// handed to the batcher still flush, but this caller is gone.
			return nil, serr
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		if ch == nil {
			continue
		}
		select {
		case r := <-ch:
			r.Index = i
			results[i] = r
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return results, nil
}

// flushBatch is the batcher's flush function: ONE pass under the server
// mutex admits (or rejects) every item, then ONE journal append+fsync
// makes all accepted jobs durable together. Per-item failures never fail
// the batch: each item gets its own result, rejections carrying the same
// drain-rate Retry-After the single-submit path computes.
//
// Rate limiting is charged once per client per flush — a batch is one
// work-creating request per client, which is exactly the economy batching
// sells; per-client fairness still holds across flushes.
func (s *Server) flushBatch(items []batch.Item[batchSubmission, BatchItemResult]) {
	flushStart := time.Now()
	s.met.BatchFlushes.Add(1)
	s.met.BatchItems.Add(int64(len(items)))
	s.met.BatchSizes.Observe(len(items))

	results := make([]BatchItemResult, len(items))
	var recs []journalRecord
	reserved := make(map[string]error)

	s.mu.Lock()
	for i, it := range items {
		sub := it.Value
		if j, ok := s.inflight[sub.key]; ok {
			s.met.Coalesced.Add(1)
			st := s.statusLocked(j, false)
			results[i] = BatchItemResult{Accepted: true, Status: http.StatusAccepted, Job: &st}
			continue
		}
		if _, ok := s.store.get(sub.key); ok {
			s.met.CacheHits.Add(1)
			j := s.newJobLocked(sub.req, sub.key, sub.opts)
			now := time.Now()
			j.state, j.cached = JobDone, true
			j.started, j.finish = now, now
			close(j.done)
			s.rememberFinishedLocked(j)
			st := s.statusLocked(j, false)
			results[i] = BatchItemResult{Accepted: true, Status: http.StatusOK, Job: &st}
			continue
		}
		if s.draining {
			results[i] = BatchItemResult{Status: http.StatusServiceUnavailable,
				Error: ErrDraining.Error(), RetryAfterS: drainingRetryAfter}
			continue
		}
		client := sub.opts.clientName()
		rerr, seen := reserved[client]
		if !seen {
			rerr = s.adm.reserve(client)
			reserved[client] = rerr
		}
		if rerr != nil {
			s.met.RateLimited.Add(1)
			results[i] = BatchItemResult{Status: http.StatusTooManyRequests,
				Error: rerr.Error(), RetryAfterS: RetryAfterSeconds(rerr, 5)}
			continue
		}
		s.met.CacheMisses.Add(1)
		j := s.newJobLocked(sub.req, sub.key, sub.opts)
		if err := s.adm.enqueue(j, false); err != nil {
			delete(s.jobs, j.id)
			if errors.Is(err, ErrShedLoad) {
				s.met.JobsShed.Add(1)
			}
			results[i] = BatchItemResult{Status: http.StatusTooManyRequests,
				Error: err.Error(), RetryAfterS: RetryAfterSeconds(err, 5)}
			continue
		}
		s.inflight[sub.key] = j
		s.met.JobsQueued.Add(1)
		recs = append(recs, submitRecord(j.id, sub.key, sub.req, j.client, j.deadline, j.queueDeadline))
		st := s.statusLocked(j, false)
		results[i] = BatchItemResult{Accepted: true, Status: http.StatusAccepted, Job: &st}
	}
	// The whole flush's write-ahead records land in one append+fsync; as
	// with single submits, an append failure degrades durability only.
	if err := s.jnl.submitBatch(recs); err != nil {
		s.met.JournalAppendErrors.Add(1)
		s.logf("service: %v", err)
	} else if s.jnl != nil && len(recs) > 1 {
		s.met.FsyncsSaved.Add(int64(len(recs) - 1))
	}
	s.mu.Unlock()

	s.met.BatchFlush.Observe(time.Since(flushStart))
	for i, it := range items {
		it.Done <- results[i]
	}
}
