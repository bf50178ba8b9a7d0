package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/cluster"
	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/merkle"
	"github.com/kit-ces/hayat/internal/store"
)

// LifetimeRequest is the body of POST /v1/lifetime. Config fields use the
// hayat.Config field names (e.g. {"Rows":4,"Cols":4,"Years":2}); omitted
// fields take their DefaultConfig values. With wait set, the response
// blocks until the job is terminal and carries the result inline.
type LifetimeRequest struct {
	Config json.RawMessage `json:"config,omitempty"`
	Seed   int64           `json:"seed"`
	Policy string          `json:"policy"`
	Wait   bool            `json:"wait,omitempty"`
	// Client is the fairness identity for round-robin scheduling
	// (empty: "default").
	Client string `json:"client,omitempty"`
	// DeadlineMS bounds queue wait plus simulation in milliseconds; a job
	// past its deadline is evicted (queued) or cancelled (running).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// QueueTTLMS bounds only the queue wait: an expired job never reaches
	// a worker.
	QueueTTLMS int64 `json:"queue_ttl_ms,omitempty"`
}

// PopulationRequest is the body of POST /v1/population. Population jobs
// support the same admission fields.
type PopulationRequest struct {
	Config     json.RawMessage `json:"config,omitempty"`
	BaseSeed   int64           `json:"base_seed"`
	Chips      int             `json:"chips"`
	Policy     string          `json:"policy"`
	Wait       bool            `json:"wait,omitempty"`
	Client     string          `json:"client,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
	QueueTTLMS int64           `json:"queue_ttl_ms,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/lifetime        submit a single-chip lifetime job
//	POST   /v1/population      submit a population fan-out job
//	POST   /v1/batch           submit many jobs in one admission pass
//	GET    /v1/jobs/{id}        poll status / fetch result
//	GET    /v1/jobs/{id}/result canonical result bytes (what the proof covers)
//	GET    /v1/jobs/{id}/proof  Merkle inclusion proof for the result
//	DELETE /v1/jobs/{id}       cancel a job
//	GET    /v1/store/{key}     replica read: local copy as a store envelope (HEAD: leaf hash only)
//	PUT    /v1/store/{key}     replica write: store a peer's verified result copy
//	GET    /healthz            liveness (pure: alive even while draining)
//	GET    /readyz             readiness (503 until replay + workers + first peer sweep)
//	GET    /metrics            counters and latency histograms
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lifetime", s.handleLifetime)
	mux.HandleFunc("POST /v1/population", s.handlePopulation)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/proof", s.handleJobProof)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/store/{key}", s.handleStoreGet) // also matches HEAD
	mux.HandleFunc("PUT /v1/store/{key}", s.handleStorePut)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// decodeConfig overlays the request's partial config JSON onto the
// defaults, rejecting unknown fields.
func decodeConfig(raw json.RawMessage) (hayat.Config, error) {
	cfg := hayat.DefaultConfig()
	if len(raw) > 0 && !bytes.Equal(bytes.TrimSpace(raw), []byte("null")) {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return hayat.Config{}, fmt.Errorf("config: %w", err)
		}
	}
	return cfg, nil
}

func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func (s *Server) handleLifetime(w http.ResponseWriter, r *http.Request) {
	var req LifetimeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cfg, err := decodeConfig(req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.SubmitLifetimeWith(cfg, req.Seed, req.Policy, SubmitOpts{
		Client:   req.Client,
		Deadline: time.Duration(req.DeadlineMS) * time.Millisecond,
		QueueTTL: time.Duration(req.QueueTTLMS) * time.Millisecond,
	})
	s.respondSubmit(w, r, st, err, req.Wait)
}

func (s *Server) handlePopulation(w http.ResponseWriter, r *http.Request) {
	var req PopulationRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cfg, err := decodeConfig(req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.SubmitPopulationWith(cfg, req.BaseSeed, req.Chips, req.Policy, SubmitOpts{
		Client:   req.Client,
		Deadline: time.Duration(req.DeadlineMS) * time.Millisecond,
		QueueTTL: time.Duration(req.QueueTTLMS) * time.Millisecond,
	})
	s.respondSubmit(w, r, st, err, req.Wait)
}

// drainingRetryAfter is the Retry-After hint on 503s while draining: the
// client should give a replacement instance time to come up.
const drainingRetryAfter = 10 // seconds

// admitStatus maps a submit error to its HTTP status and Retry-After
// seconds (0: none), for single submits and batch items alike: 400 for
// invalid requests, 503 while draining (the server is going away — retry
// against its successor), 429 when the queue is full (the server is alive
// but wants this client to back off). A cluster owner's BusyError passes
// through verbatim, so the client backs off exactly as if it had reached
// the owner directly.
func admitStatus(err error) (code, retryAfter int) {
	var busy *cluster.BusyError
	switch {
	case errors.As(err, &busy):
		return busy.Status, int(busy.RetryAfter.Seconds())
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, drainingRetryAfter
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, RetryAfterSeconds(err, 5)
	default:
		return http.StatusBadRequest, 0
	}
}

// submitCode is an admitted submit's status: 200 once its job is
// terminal (a cache hit or a finished wait), 202 while it is queued or
// running.
func submitCode(st JobStatus) int {
	if st.State.Terminal() {
		return http.StatusOK
	}
	return http.StatusAccepted
}

// respondSubmit renders a submit outcome: an error with admitStatus's
// code and Retry-After, else the job's status, after waiting for it to
// turn terminal when wait is set.
func (s *Server) respondSubmit(w http.ResponseWriter, r *http.Request, st JobStatus, err error, wait bool) {
	if err != nil {
		code, retry := admitStatus(err)
		if retry > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retry))
		}
		writeError(w, code, err)
		return
	}
	if wait && !st.State.Terminal() {
		waited, werr := s.Wait(r.Context(), st.ID)
		if werr != nil {
			// The waiting client went away; its job keeps running (it may
			// be shared) unless nobody else can see it yet.
			writeError(w, http.StatusRequestTimeout, werr)
			return
		}
		st = waited
	}
	writeStatus(w, submitCode(st), st)
}

// maxBatchBody bounds a batch request body: up to maxBatchItems items,
// each with a config overlay, fit comfortably in 8 MiB.
const maxBatchBody = 8 << 20

// handleBatch answers POST /v1/batch. The contract is 200-with-mixed-
// results: once the request body decodes (else 400/413), the response is
// HTTP 200 and acceptance is reported per item — an over-budget item
// carries its own 429 status and retry_after_s inside the body without
// failing its neighbours. See BatchItemResult.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d items exceeds the %d-item limit", len(req.Items), maxBatchItems))
		return
	}
	results, err := s.SubmitBatch(req.Items)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := BatchResponse{Results: results}
	for _, res := range results {
		if res.Accepted {
			resp.Accepted++
		} else {
			resp.Rejected++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobResult serves a done job's result bytes verbatim — the exact
// bytes its Merkle inclusion proof covers. (A status re-indents its
// result, which would break client-side proof verification.)
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	data, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleJobProof answers GET /v1/jobs/{id}/proof with the job result's
// Merkle inclusion proof (404 for unknown jobs or jobs without an
// audited result).
func (s *Server) handleJobProof(w http.ResponseWriter, r *http.Request) {
	pr, err := s.Proof(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, pr)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"), true)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeStatus(w, http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	st, err := s.Status(id, false)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// maxStorePutBody bounds a replica PUT body: an envelope wrapping
// canonical result bytes (same ceiling the cluster client applies to
// result fetches).
const maxStorePutBody = 256 << 20

// handleStoreGet answers GET/HEAD /v1/store/{key}: the peer replica-read
// surface. It serves only the LOCAL tiers (a miss here must never
// recurse into another replica read) and only bytes that verify against
// this node's Merkle audit — a divergent local copy is quarantined (the
// store counts it) and reported as a miss, never served. GET bodies are
// raw store envelopes (self-verifying: magic, key, leaf hash, length),
// not the indented JSON the human API uses; both verbs carry the leaf
// hash in a header so HEAD doubles as the anti-entropy stat probe.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: not a result key"))
		return
	}
	data, ok := s.store.GetLocal(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no local copy of %s", key))
		return
	}
	// One hash both checks the copy against the audit and heads the answer.
	leaf := merkle.LeafHash(data)
	if audited, ok := s.audit.Leaf(key); ok && leaf != audited {
		s.store.Quarantine(key)
		writeError(w, http.StatusNotFound, fmt.Errorf("service: local copy of %s quarantined: %w", key, errDiverged(key)))
		return
	}
	w.Header().Set(cluster.LeafHeader, hex.EncodeToString(leaf[:]))
	s.met.StoreReplicaServes.Add(1)
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(store.EncodeEnvelope(key, data))
}

// handleStorePut answers PUT /v1/store/{key}: a peer replicating a
// terminal result (or the anti-entropy sweep read-repairing us). The
// envelope is self-verifying; bytes that contradict our own audit are
// refused with 409 — two nodes disagreeing about a content-addressed
// key is a determinism fork, and silently overwriting would hide it.
func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxStorePutBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: reading envelope: %w", err))
		return
	}
	envKey, payload, err := store.DecodeEnvelope(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if envKey != key || !store.ValidKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: envelope key %s does not match path", envKey))
		return
	}
	if err := s.verifyStored(key, payload); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	if err := s.store.PutLocal(key, payload); err != nil {
		s.logf("service: persisting result %s: %v", key, err)
	}
	// Replicas audit the copies they hold so they can serve inclusion
	// proofs (and verify future reads) even if the owner never returns.
	s.auditResult(key, payload)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": s.Uptime().Seconds(),
	})
}

// handleReady answers GET /readyz: 200 once the node should receive
// traffic, 503 (with machine-readable reasons) before journal replay and
// worker startup finish, while draining, and — in cluster mode — before
// the first peer health sweep. This is also the endpoint peers probe.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	rs := s.Readiness()
	code := http.StatusOK
	if !rs.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rs)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.met.Snapshot()
	as := s.arts.Stats()
	snap.Artifacts.Hits = as.Hits
	snap.Artifacts.Misses = as.Misses
	snap.Artifacts.Platforms = as.Platforms
	snap.Admission.ClientDepths = s.adm.depths()
	ast := s.AuditStats()
	snap.Merkle.Segments = ast.Segments
	snap.Merkle.SealedSegments = ast.SealedSegments
	snap.Failpoints = faultinject.Stats()
	snap.Store.ReplicationDebt = s.store.Debt()
	if s.router != nil {
		snap.Cluster.Enabled = true
		snap.Cluster.Self = s.router.Self()
		snap.Cluster.Peers = s.router.Snapshot()
	}
	writeJSON(w, http.StatusOK, snap)
}

// writeStatus answers with a job status, byte for byte as writeJSON would.
// A status that carries a result skips encoding/json's compact and
// indent passes over it: the envelope is encoded without the result, and
// the result is rendered in one pass (renderIndented) and spliced in as
// the last field, which needs JobStatus.Result to stay the last field
// (TestStatusBodyMatchesEncoder pins it). A result the renderer refuses
// goes to writeJSON, whose encoder then refuses it the same way.
func writeStatus(w http.ResponseWriter, code int, st JobStatus) {
	body, ok := statusBody(st)
	if !ok {
		writeJSON(w, code, st)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// statusBody is writeJSON's body for a status that carries a result. It
// reports false for a status without one, or one it cannot render.
func statusBody(st JobStatus) ([]byte, bool) {
	result := st.Result
	if len(result) == 0 {
		return nil, false
	}
	st.Result = nil
	env, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, false
	}
	const field, end = ",\n  \"result\": ", "\n}\n"
	body := make([]byte, 0, len(env)+len(field)+len(result)+len(result)/8+len(end))
	body = append(body, env[:len(env)-len("\n}")]...)
	body = append(body, field...)
	body, ok := renderIndented(body, result, 1)
	return append(body, end...), ok
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}
