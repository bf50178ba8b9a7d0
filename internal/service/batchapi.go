package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// maxBatchItems bounds one POST /v1/batch request; larger batches should
// be split by the client.
const maxBatchItems = 1024

// BatchItem is one submission inside POST /v1/batch. It mirrors the
// single-submit bodies: kind selects lifetime (default) or population,
// seed is the chip seed (base seed for populations), chips the population
// size. Wait is deliberately absent — batch submits are fire-and-poll.
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
// 429 queue full with RetryAfterS, 503 draining).
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

// batchSubmissionFromItem validates one batch item into its canonical
// submission without touching any server state — it is pure, so the
// decode fuzzer can drive it directly.
func batchSubmissionFromItem(it BatchItem) (submission, error) {
	kind := it.Kind
	if kind == "" {
		kind = KindLifetime
	}
	chips := 1
	switch kind {
	case KindLifetime:
		if it.Chips > 1 {
			return submission{}, fmt.Errorf("chips is a population field (got %d for a lifetime item)", it.Chips)
		}
	case KindChip:
		if it.Chips > 1 {
			return submission{}, fmt.Errorf("chip items are single-chip (got chips=%d)", it.Chips)
		}
	case KindPopulation:
		chips = it.Chips
	default:
		return submission{}, fmt.Errorf("unknown kind %q", it.Kind)
	}
	cfg, err := decodeConfig(it.Config)
	if err != nil {
		return submission{}, err
	}
	return newSubmission(request{Kind: kind, Config: cfg, Policy: it.Policy, Seed: it.Seed, Chips: chips}, SubmitOpts{
		Client:   it.Client,
		Deadline: time.Duration(it.DeadlineMS) * time.Millisecond,
		QueueTTL: time.Duration(it.QueueTTLMS) * time.Millisecond,
	})
}

// SubmitBatch admits every valid item in one pass under the server mutex,
// through the same steps as a single submit, and journals the accepted
// jobs with one write and one fsync. Invalid items are answered with a
// 400 result; no item fails its neighbours.
func (s *Server) SubmitBatch(items []BatchItem) ([]BatchItemResult, error) {
	if len(items) == 0 {
		return nil, errors.New("service: batch has no items")
	}
	if len(items) > maxBatchItems {
		return nil, fmt.Errorf("service: batch of %d items exceeds the %d-item limit", len(items), maxBatchItems)
	}
	results := make([]BatchItemResult, len(items))
	subs := make([]submission, len(items))
	valid := 0
	for i, it := range items {
		sub, err := batchSubmissionFromItem(it)
		if err != nil {
			results[i] = itemResult(i, JobStatus{}, err)
			continue
		}
		subs[i] = sub
		valid++
	}
	if valid == 0 {
		return results, nil
	}

	passStart := time.Now()
	s.met.BatchFlushes.Add(1)
	s.met.BatchItems.Add(int64(valid))
	s.met.BatchSizes.Observe(valid)
	type hit struct {
		key  string
		data []byte
	}
	var (
		accepted []*Job
		hits     []hit // cache hits: audit leaves to re-record after unlocking
	)
	s.mu.Lock()
	for i, sub := range subs {
		if results[i].Status != 0 {
			continue
		}
		j, data, err := s.settleLocked(sub)
		if data != nil {
			hits = append(hits, hit{sub.key, data})
		}
		if j == nil && err == nil {
			if j, err = s.enqueueLocked(sub); err == nil {
				accepted = append(accepted, j)
			}
		}
		var st JobStatus
		if j != nil {
			st = s.statusLocked(j, false)
		}
		results[i] = itemResult(i, st, err)
	}
	s.journalAcceptedLocked(accepted)
	s.mu.Unlock()
	for _, h := range hits {
		s.auditResult(h.key, h.data)
	}
	s.met.BatchFlush.Observe(time.Since(passStart))
	return results, nil
}

// itemResult is one batch item's outcome: the job it reached, or the
// status and Retry-After the same submission gets from the single-job
// endpoint.
func itemResult(index int, st JobStatus, err error) BatchItemResult {
	if err != nil {
		code, retry := admitStatus(err)
		return BatchItemResult{Index: index, Status: code, Error: err.Error(), RetryAfterS: retry}
	}
	return BatchItemResult{Index: index, Accepted: true, Status: submitCode(st), Job: &st}
}
