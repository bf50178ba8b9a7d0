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
// fires on every forwarded request a peer client sends, so arming it
// exercises retry exhaustion, breaker trips, and local fallback;
// cluster.health-probe fires in the prober's probe path so health-driven
// eviction can be forced without killing a process.
const (
	fpForward     = "cluster.forward"
	fpHealthProbe = "cluster.health-probe"
)

// ForwardedHeader marks a request as peer-forwarded. A node receiving it
// must execute locally and never re-forward, so divergent ring views
// (during eviction/recovery windows) cannot produce forwarding loops.
const ForwardedHeader = "X-Hayat-Forwarded"

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

// Client is the HTTP client one node uses to talk to its peers. One
// shared transport, explicit per-attempt timeouts, and the forwarded
// header on every mutating call.
type Client struct {
	hc             *http.Client
	attemptTimeout time.Duration
}

// NewClient builds a peer client. attemptTimeout bounds every single
// request (default 10s); retries across attempts are the Router's job.
func NewClient(attemptTimeout time.Duration) *Client {
	if attemptTimeout <= 0 {
		attemptTimeout = 10 * time.Second
	}
	return &Client{
		// A dedicated client (never http.DefaultClient): the overall
		// Timeout is a hard backstop above the per-attempt context in
		// case a peer streams a response forever.
		hc:             &http.Client{Timeout: 5 * time.Minute},
		attemptTimeout: attemptTimeout,
	}
}

// do issues one attempt. Every forwarded request evaluates the
// cluster.forward failpoint so fault drills can sever peer links without
// touching the network.
func (c *Client) do(ctx context.Context, method, url string, body []byte, maxResp int64) (int, http.Header, []byte, error) {
	if err := faultinject.Hit(fpForward); err != nil {
		return 0, nil, nil, fmt.Errorf("cluster: forward to %s: %w", url, err)
	}
	actx, cancel := context.WithTimeout(ctx, c.attemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, url, rd)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("cluster: building %s %s: %w", method, url, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(ForwardedHeader, "1")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("cluster: %s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxResp+1))
	if err != nil {
		return resp.StatusCode, resp.Header, nil, fmt.Errorf("cluster: reading %s %s: %w", method, url, err)
	}
	if int64(len(payload)) > maxResp {
		return resp.StatusCode, resp.Header, nil, &decodeError{fmt.Errorf("response over %d bytes", maxResp)}
	}
	return resp.StatusCode, resp.Header, payload, nil
}

// busyFrom builds the BusyError for a 429/503 reply, preserving the
// origin peer's Retry-After.
func busyFrom(peer string, status int, hdr http.Header) *BusyError {
	be := &BusyError{Peer: peer, Status: status}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && ra >= 0 {
		be.RetryAfter = time.Duration(ra) * time.Second
	}
	return be
}

// Submit forwards a single lifetime-class submit body to peer's
// POST /v1/lifetime and returns the accepted job envelope. 429/503 come
// back as *BusyError with the origin's Retry-After.
func (c *Client) Submit(ctx context.Context, peer string, body []byte) (JobEnvelope, error) {
	code, hdr, payload, err := c.do(ctx, http.MethodPost, peer+"/v1/lifetime", body, maxEnvelopeBytes)
	if err != nil {
		return JobEnvelope{}, err
	}
	switch code {
	case http.StatusAccepted, http.StatusOK:
		return DecodeJobEnvelope(payload)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return JobEnvelope{}, busyFrom(peer, code, hdr)
	default:
		return JobEnvelope{}, &statusError{peer: peer, code: code, body: truncate(payload, 200)}
	}
}

// SubmitBatch forwards a pre-encoded batch request (POST /v1/batch) and
// returns the decoded per-item results. items is the request item count,
// used to validate the response shape.
func (c *Client) SubmitBatch(ctx context.Context, peer string, body []byte, items int) (BatchEnvelope, error) {
	code, hdr, payload, err := c.do(ctx, http.MethodPost, peer+"/v1/batch", body, maxEnvelopeBytes)
	if err != nil {
		return BatchEnvelope{}, err
	}
	switch code {
	case http.StatusOK:
		return DecodeBatchEnvelope(payload, items)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return BatchEnvelope{}, busyFrom(peer, code, hdr)
	default:
		return BatchEnvelope{}, &statusError{peer: peer, code: code, body: truncate(payload, 200)}
	}
}

// Job fetches a forwarded job's status envelope.
func (c *Client) Job(ctx context.Context, peer, id string) (JobEnvelope, error) {
	code, _, payload, err := c.do(ctx, http.MethodGet, peer+"/v1/jobs/"+id, nil, maxEnvelopeBytes)
	if err != nil {
		return JobEnvelope{}, err
	}
	if code != http.StatusOK {
		return JobEnvelope{}, &statusError{peer: peer, code: code, body: truncate(payload, 200)}
	}
	return DecodeJobEnvelope(payload)
}

// Result fetches a done job's canonical result bytes (the exact bytes the
// peer's audit leaf covers — identical to what local execution under the
// same key would produce).
func (c *Client) Result(ctx context.Context, peer, id string) ([]byte, error) {
	code, _, payload, err := c.do(ctx, http.MethodGet, peer+"/v1/jobs/"+id+"/result", nil, maxResultBytes)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, &statusError{peer: peer, code: code, body: truncate(payload, 200)}
	}
	if len(payload) == 0 {
		return nil, &decodeError{errors.New("empty result body")}
	}
	return payload, nil
}

// Cancel best-effort cancels a forwarded job on its peer.
func (c *Client) Cancel(ctx context.Context, peer, id string) error {
	code, _, payload, err := c.do(ctx, http.MethodDelete, peer+"/v1/jobs/"+id, nil, maxEnvelopeBytes)
	if err != nil {
		return err
	}
	if code != http.StatusOK && code != http.StatusConflict && code != http.StatusNotFound {
		return &statusError{peer: peer, code: code, body: truncate(payload, 200)}
	}
	return nil
}

// StoreGet fetches key's replica envelope from peer (GET /v1/store/{key})
// and returns the envelope-verified payload. ok=false with a nil error
// is a clean miss (the peer answered 404); a mis-keyed or corrupt
// envelope is a decodeError, never served.
func (c *Client) StoreGet(ctx context.Context, peer, key string) ([]byte, bool, error) {
	code, _, payload, err := c.do(ctx, http.MethodGet, peer+"/v1/store/"+key, nil, maxResultBytes)
	if err != nil {
		return nil, false, err
	}
	switch code {
	case http.StatusOK:
		ekey, data, derr := store.DecodeEnvelope(payload)
		if derr != nil {
			return nil, false, &decodeError{derr}
		}
		if ekey != key {
			return nil, false, &decodeError{fmt.Errorf("envelope keyed %s, want %s", ekey, key)}
		}
		return data, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, &statusError{peer: peer, code: code, body: truncate(payload, 200)}
	}
}

// StorePut pushes key's canonical bytes to peer (PUT /v1/store/{key}),
// envelope-wrapped. A 409 means the peer's own audit disagrees with
// these bytes — a determinism fork, surfaced as a non-retryable
// statusError.
func (c *Client) StorePut(ctx context.Context, peer, key string, data []byte) error {
	code, hdr, payload, err := c.do(ctx, http.MethodPut, peer+"/v1/store/"+key, store.EncodeEnvelope(key, data), maxEnvelopeBytes)
	if err != nil {
		return err
	}
	switch code {
	case http.StatusNoContent, http.StatusOK:
		return nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return busyFrom(peer, code, hdr)
	default:
		return &statusError{peer: peer, code: code, body: truncate(payload, 200)}
	}
}

// StoreStat asks peer for its leaf hash of key (HEAD /v1/store/{key},
// reading the LeafHeader) without moving the payload. ok=false with a
// nil error is a clean miss.
func (c *Client) StoreStat(ctx context.Context, peer, key string) (leaf string, ok bool, err error) {
	code, hdr, payload, err := c.do(ctx, http.MethodHead, peer+"/v1/store/"+key, nil, maxEnvelopeBytes)
	if err != nil {
		return "", false, err
	}
	switch code {
	case http.StatusOK:
		leaf = hdr.Get(LeafHeader)
		if _, perr := merkle.ParseHash(leaf); perr != nil {
			return "", false, &decodeError{fmt.Errorf("bad %s header %q: %w", LeafHeader, leaf, perr)}
		}
		return leaf, true, nil
	case http.StatusNotFound:
		return "", false, nil
	default:
		return "", false, &statusError{peer: peer, code: code, body: truncate(payload, 200)}
	}
}

// Probe checks a peer's readiness (GET /readyz). It returns ready=false
// with a nil error for a well-formed "not ready" reply (a draining peer
// is healthy HTTP-wise but must still be evicted) and an error for
// transport failures or malformed bodies.
func (c *Client) Probe(ctx context.Context, peer string) (ProbeEnvelope, error) {
	if err := faultinject.Hit(fpHealthProbe); err != nil {
		return ProbeEnvelope{}, fmt.Errorf("cluster: probe %s: %w", peer, err)
	}
	actx, cancel := context.WithTimeout(ctx, c.attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, peer+"/readyz", nil)
	if err != nil {
		return ProbeEnvelope{}, fmt.Errorf("cluster: building probe for %s: %w", peer, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return ProbeEnvelope{}, fmt.Errorf("cluster: probe %s: %w", peer, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxProbeBytes+1))
	if err != nil {
		return ProbeEnvelope{}, fmt.Errorf("cluster: reading probe from %s: %w", peer, err)
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusServiceUnavailable:
		env, derr := DecodeProbe(payload)
		if derr != nil {
			return ProbeEnvelope{}, derr
		}
		// Trust the status line over the body: a 503 is not ready no
		// matter what the body claims.
		if resp.StatusCode != http.StatusOK {
			env.Ready = false
		}
		return env, nil
	default:
		return ProbeEnvelope{}, &statusError{peer: peer, code: resp.StatusCode, body: truncate(payload, 200)}
	}
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}
