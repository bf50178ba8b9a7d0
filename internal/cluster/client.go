package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/kit-ces/hayat/internal/circuit"
	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/merkle"
	"github.com/kit-ces/hayat/internal/store"
)

// Failpoints (armed via HAYAT_FAILPOINTS / -failpoints). cluster.forward
// fires on every request the Router sends a peer other than a probe, so
// arming it exercises retry exhaustion, breaker trips, and local
// fallback; cluster.health-probe fires in the prober's probe path so
// health-driven eviction can be forced without killing a process.
const (
	fpForward     = "cluster.forward"
	fpHealthProbe = "cluster.health-probe"
)

// LeafHeader carries a replica entry's hex Merkle leaf hash on
// /v1/store responses, so StoreStat can compare copies across nodes
// without moving payloads.
const LeafHeader = "X-Hayat-Leaf"

// Decoder caps. Peer responses are untrusted input (a peer may be a
// different build, mid-crash, or behind a confused proxy): every decode
// path is size-capped and validated, and fuzzed in fuzz_test.go.
const (
	maxEnvelopeBytes = 4 << 20   // job/batch envelopes
	maxProbeBytes    = 64 << 10  // /readyz bodies
	maxResultBytes   = 256 << 20 // canonical result bytes
)

// BusyError reports that the origin peer answered 429 or 503: honest
// backpressure, not failure. The service layer passes it through to the
// submitting client with the origin's Retry-After intact — overload must
// surface as overload, not mask itself as a local queue slot.
type BusyError struct {
	Peer       string
	Status     int           // 429 or 503
	RetryAfter time.Duration // 0 when the peer sent none
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("peer %s busy: HTTP %d (retry after %s)", e.Peer, e.Status, e.RetryAfter)
}

// ErrPeerStatus wraps unexpected HTTP statuses from a peer.
var ErrPeerStatus = errors.New("cluster: unexpected peer status")

// transientStatus reports whether an HTTP status is worth retrying on the
// same peer: server-side hiccups, not client errors (4xx means the
// request itself is wrong and will be wrong again).
func transientStatus(code int) bool {
	return code == http.StatusInternalServerError ||
		code == http.StatusBadGateway ||
		code == http.StatusGatewayTimeout
}

// statusError is a non-2xx peer reply that is not a BusyError.
type statusError struct {
	peer string
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("peer %s: HTTP %d: %s: %s", e.peer, e.code, http.StatusText(e.code), e.body)
}

//lint:ignore errwrap errors.Is implementation: the == against the sentinel IS the matching step errors.Is delegates to
func (e *statusError) Is(target error) bool { return target == ErrPeerStatus }

// retryable classifies an error for the per-peer retry loop: transport
// errors and transient statuses are retried (with backoff); BusyError,
// 4xx, decode failures, an open breaker and context cancellation are not.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, circuit.ErrOpen) {
		return false
	}
	var be *BusyError
	if errors.As(err, &be) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		return transientStatus(se.code)
	}
	var de *decodeError
	if errors.As(err, &de) {
		return false
	}
	// Transport-level failures (connection refused/reset, timeouts) and
	// injected faults are transient by definition.
	return true
}

// decodeError marks a syntactically or semantically invalid peer payload.
type decodeError struct{ err error }

func (e *decodeError) Error() string { return "cluster: bad peer payload: " + e.err.Error() }
func (e *decodeError) Unwrap() error { return e.err }

// JobEnvelope is the slice of the service's job-status JSON the cluster
// layer needs to track a forwarded job.
type JobEnvelope struct {
	ID     string `json:"job_id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// Terminal reports whether the remote job has finished (in any way).
func (e JobEnvelope) Terminal() bool {
	return e.State == "done" || e.State == "failed" || e.State == "cancelled"
}

var validStates = map[string]bool{
	"queued": true, "running": true, "done": true, "failed": true, "cancelled": true,
}

// DecodeJobEnvelope parses and validates a peer's job-status body. It
// never panics on arbitrary input (fuzzed).
func DecodeJobEnvelope(data []byte) (JobEnvelope, error) {
	var e JobEnvelope
	if len(data) > maxEnvelopeBytes {
		return e, &decodeError{fmt.Errorf("envelope too large (%d bytes)", len(data))}
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return e, &decodeError{err}
	}
	if e.ID == "" || len(e.ID) > 128 {
		return e, &decodeError{fmt.Errorf("bad job_id %q", e.ID)}
	}
	if !validStates[e.State] {
		return e, &decodeError{fmt.Errorf("unknown state %q", e.State)}
	}
	return e, nil
}

// BatchItemEnvelope mirrors one entry of the service's batch response.
type BatchItemEnvelope struct {
	Index       int          `json:"index"`
	Accepted    bool         `json:"accepted"`
	Status      int          `json:"status"`
	Job         *JobEnvelope `json:"job,omitempty"`
	Error       string       `json:"error,omitempty"`
	RetryAfterS int          `json:"retry_after_s,omitempty"`
}

// BatchEnvelope mirrors the service's POST /v1/batch response.
type BatchEnvelope struct {
	Results []BatchItemEnvelope `json:"results"`
}

// DecodeBatchEnvelope parses and validates a peer's batch response:
// every accepted item must carry a valid job envelope and item indices
// must be in-range and unique (fuzzed).
func DecodeBatchEnvelope(data []byte, items int) (BatchEnvelope, error) {
	var e BatchEnvelope
	if len(data) > maxEnvelopeBytes {
		return e, &decodeError{fmt.Errorf("batch envelope too large (%d bytes)", len(data))}
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return e, &decodeError{err}
	}
	if len(e.Results) != items {
		return e, &decodeError{fmt.Errorf("%d results for %d items", len(e.Results), items)}
	}
	seen := make(map[int]bool, len(e.Results))
	for _, it := range e.Results {
		if it.Index < 0 || it.Index >= items || seen[it.Index] {
			return e, &decodeError{fmt.Errorf("bad item index %d", it.Index)}
		}
		seen[it.Index] = true
		if it.Accepted {
			if it.Job == nil {
				return e, &decodeError{fmt.Errorf("accepted item %d without job", it.Index)}
			}
			if it.Job.ID == "" || len(it.Job.ID) > 128 || !validStates[it.Job.State] {
				return e, &decodeError{fmt.Errorf("accepted item %d: bad job envelope", it.Index)}
			}
		}
	}
	return e, nil
}

// ProbeEnvelope mirrors the service's GET /readyz body.
type ProbeEnvelope struct {
	Ready    bool     `json:"ready"`
	Draining bool     `json:"draining"`
	Reasons  []string `json:"reasons,omitempty"`
}

// DecodeProbe parses and validates a peer's /readyz body (fuzzed). A
// ready body must not carry refusal reasons — that shape signals a
// half-broken peer and is treated as not ready.
func DecodeProbe(data []byte) (ProbeEnvelope, error) {
	var e ProbeEnvelope
	if len(data) > maxProbeBytes {
		return e, &decodeError{fmt.Errorf("probe body too large (%d bytes)", len(data))}
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return e, &decodeError{err}
	}
	if e.Ready && len(e.Reasons) > 0 {
		return e, &decodeError{fmt.Errorf("ready=true with %d refusal reasons", len(e.Reasons))}
	}
	return e, nil
}

// do issues one attempt of a request to peer's path, under failpoint fp,
// with the per-attempt timeout, and reads the reply body under maxResp. Every peer request goes through here, so
// fault drills can sever peer links without touching the network.
func (r *Router) do(ctx context.Context, fp, method, peer, path string, body []byte, maxResp int64) (reply, error) {
	url := peer + path
	if err := faultinject.Hit(fp); err != nil {
		return reply{}, fmt.Errorf("cluster: %s %s: %w", method, url, err)
	}
	actx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, url, rd)
	if err != nil {
		return reply{}, fmt.Errorf("cluster: building %s %s: %w", method, url, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("cluster: %s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxResp+1))
	if err != nil {
		return reply{}, fmt.Errorf("cluster: reading %s %s: %w", method, url, err)
	}
	if int64(len(payload)) > maxResp {
		return reply{}, &decodeError{fmt.Errorf("response over %d bytes", maxResp)}
	}
	return reply{peer: peer, code: resp.StatusCode, hdr: resp.Header, body: payload}, nil
}

// reply is one peer HTTP response, its body read under a size cap.
type reply struct {
	peer string
	code int
	hdr  http.Header
	body []byte
}

// busy reports a 429 or 503 reply as the peer's BusyError, preserving
// its Retry-After; any other status it does not handle is a statusError.
func (rp reply) busy() error {
	if rp.code != http.StatusTooManyRequests && rp.code != http.StatusServiceUnavailable {
		return rp.unexpected()
	}
	be := &BusyError{Peer: rp.peer, Status: rp.code}
	if ra, err := strconv.Atoi(rp.hdr.Get("Retry-After")); err == nil && ra >= 0 {
		be.RetryAfter = time.Duration(ra) * time.Second
	}
	return be
}

// unexpected reports a status the caller does not handle.
func (rp reply) unexpected() error {
	return &statusError{peer: rp.peer, code: rp.code, body: truncate(rp.body, 200)}
}

// Err is a batch item's rejection as an error, nil when it was accepted:
// a 429 or 503 is the peer's BusyError with the item's Retry-After, as
// the same status on the whole request would be.
func (e BatchItemEnvelope) Err(peer string) error {
	switch {
	case e.Accepted:
		return nil
	case e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable:
		return &BusyError{Peer: peer, Status: e.Status, RetryAfter: time.Duration(max(e.RetryAfterS, 0)) * time.Second}
	default:
		return &statusError{peer: peer, code: e.Status, body: e.Error}
	}
}

// SubmitBatch posts a pre-encoded batch request (POST /v1/batch) to peer
// and returns the decoded per-item results; items is the request's item
// count, used to validate the reply's shape. A 429 or 503 comes back as
// *BusyError with the peer's Retry-After.
//
// The peer may admit the items even if ctx ends while the request is in
// flight, and only its reply names the jobs the caller must then cancel.
// So the attempt in flight outlives ctx by up to AbandonGrace, and no
// retry follows it.
func (r *Router) SubmitBatch(ctx context.Context, peer string, body []byte, items int) (BatchEnvelope, error) {
	actx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	defer context.AfterFunc(ctx, func() {
		grace := time.NewTimer(AbandonGrace)
		defer grace.Stop()
		select {
		case <-grace.C:
			cancel()
		case <-actx.Done():
		}
	})()
	var env BatchEnvelope
	err := r.withRetry(ctx, actx, peer, http.MethodPost, "/v1/batch", body, maxEnvelopeBytes, func(rp reply) (err error) {
		if rp.code != http.StatusOK {
			return rp.busy()
		}
		env, err = DecodeBatchEnvelope(rp.body, items)
		return err
	})
	return env, err
}

// Job fetches the status envelope of job id on peer.
func (r *Router) Job(ctx context.Context, peer, id string) (JobEnvelope, error) {
	var env JobEnvelope
	err := r.withRetry(ctx, ctx, peer, http.MethodGet, "/v1/jobs/"+id, nil, maxEnvelopeBytes, func(rp reply) (err error) {
		if rp.code != http.StatusOK {
			return rp.unexpected()
		}
		env, err = DecodeJobEnvelope(rp.body)
		return err
	})
	return env, err
}

// Result fetches a done job's canonical result bytes (the exact bytes the
// peer's audit leaf covers — identical to what local execution under the
// same key would produce).
func (r *Router) Result(ctx context.Context, peer, id string) ([]byte, error) {
	var data []byte
	err := r.withRetry(ctx, ctx, peer, http.MethodGet, "/v1/jobs/"+id+"/result", nil, maxResultBytes, func(rp reply) error {
		switch {
		case rp.code != http.StatusOK:
			return rp.unexpected()
		case len(rp.body) == 0:
			return &decodeError{errors.New("empty result body")}
		}
		data = rp.body
		return nil
	})
	return data, err
}

// Cancel best-effort cancels job id on peer in a single attempt: it is
// advisory, since a remote job nobody cancels only warms the peer's cache.
func (r *Router) Cancel(ctx context.Context, peer, id string) error {
	rp, err := r.do(ctx, fpForward, http.MethodDelete, peer, "/v1/jobs/"+id, nil, maxEnvelopeBytes)
	if err != nil {
		return err
	}
	if rp.code != http.StatusOK && rp.code != http.StatusConflict && rp.code != http.StatusNotFound {
		return rp.unexpected()
	}
	return nil
}

// StoreGet fetches key's replica envelope from peer (GET /v1/store/{key})
// and returns the envelope-verified payload. ok=false with a nil error
// is a clean miss (the peer answered 404); a mis-keyed or corrupt
// envelope is a decodeError, never served.
func (r *Router) StoreGet(ctx context.Context, peer, key string) (data []byte, ok bool, err error) {
	err = r.withRetry(ctx, ctx, peer, http.MethodGet, "/v1/store/"+key, nil, maxResultBytes, func(rp reply) error {
		switch rp.code {
		case http.StatusNotFound:
			return nil
		case http.StatusOK:
			ekey, payload, derr := store.DecodeEnvelope(rp.body)
			if derr != nil {
				return &decodeError{derr}
			}
			if ekey != key {
				return &decodeError{fmt.Errorf("envelope keyed %s, want %s", ekey, key)}
			}
			data, ok = payload, true
			return nil
		default:
			return rp.unexpected()
		}
	})
	return data, ok, err
}

// StorePut pushes key's canonical bytes to peer (PUT /v1/store/{key}),
// envelope-wrapped. A 409 means the peer's own audit disagrees with
// these bytes — a determinism fork, surfaced as a non-retryable
// statusError.
func (r *Router) StorePut(ctx context.Context, peer, key string, data []byte) error {
	return r.withRetry(ctx, ctx, peer, http.MethodPut, "/v1/store/"+key, store.EncodeEnvelope(key, data), maxEnvelopeBytes, func(rp reply) error {
		if rp.code == http.StatusNoContent || rp.code == http.StatusOK {
			return nil
		}
		return rp.busy()
	})
}

// StoreStat asks peer for its leaf hash of key (HEAD /v1/store/{key},
// reading the LeafHeader) without moving the payload. ok=false with a
// nil error is a clean miss.
func (r *Router) StoreStat(ctx context.Context, peer, key string) (leaf string, ok bool, err error) {
	err = r.withRetry(ctx, ctx, peer, http.MethodHead, "/v1/store/"+key, nil, maxEnvelopeBytes, func(rp reply) error {
		switch rp.code {
		case http.StatusNotFound:
			return nil
		case http.StatusOK:
			got := rp.hdr.Get(LeafHeader)
			if _, perr := merkle.ParseHash(got); perr != nil {
				return &decodeError{fmt.Errorf("bad %s header %q: %w", LeafHeader, got, perr)}
			}
			leaf, ok = got, true
			return nil
		default:
			return rp.unexpected()
		}
	})
	return leaf, ok, err
}

// probe checks a peer's readiness (GET /readyz) in a single attempt. It
// returns ready=false with a nil error for a well-formed "not ready"
// reply (a draining peer is healthy HTTP-wise but must still be evicted)
// and an error for transport failures or malformed bodies.
func (r *Router) probe(ctx context.Context, peer string) (ProbeEnvelope, error) {
	rp, err := r.do(ctx, fpHealthProbe, http.MethodGet, peer, "/readyz", nil, maxProbeBytes)
	if err != nil {
		return ProbeEnvelope{}, err
	}
	if rp.code != http.StatusOK && rp.code != http.StatusServiceUnavailable {
		return ProbeEnvelope{}, rp.unexpected()
	}
	env, err := DecodeProbe(rp.body)
	if err != nil {
		return ProbeEnvelope{}, err
	}
	// Trust the status line over the body: a 503 is not ready no matter
	// what the body claims.
	env.Ready = env.Ready && rp.code == http.StatusOK
	return env, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}
