package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/merkle"
	"github.com/kit-ces/hayat/internal/persist"
)

// runService runs a service workload against the real hayatd, built from
// the checkout and started with its shipped defaults plus -workers 2 and
// on-disk -data, -journal and -audit. Set-up starts it setupRepeats times
// from empty directories (the last start serves the run) and, on
// service-repeat, computes the workload's keys once. The measured phase is
// a closed loop of `clients` HTTP clients, each waiting for its full
// result before it sends the next request.
func runService(ctx context.Context, w workload, o runOpts) (*outcome, error) {
	cfg := w.cfg
	dir, err := os.MkdirTemp(o.work, "hayatd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// A fixed path lets go build skip relinking an up-to-date binary.
	bin := filepath.Join(o.work, "hayatd")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/hayatd")
	build.Dir = o.root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building hayatd: %w\n%s", err, msg)
	}

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: 5 * time.Minute}
	defer hc.CloseIdleConnections()
	tr := newTracer()
	out := &outcome{layers: map[string]float64{}}
	setupID := tr.open(0, 0, "setup", time.Now())
	var (
		d      *daemon
		starts []float64
	)
	for r := 0; r < setupRepeats; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(ctx, hc, bin, filepath.Join(dir, strconv.Itoa(r))); err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.add(0, setupID, "hayatd.start", t0, t1)
		starts = append(starts, t1.Sub(t0).Seconds())
	}
	defer d.kill()

	submit := func(seed int64) (jobStatus, time.Time, time.Time, error) {
		jc := cfg
		jc.MixSeed = seed
		return postLifetime(ctx, hc, d.base, lifetimeRequest{Config: jc, Seed: seed, Policy: w.policy.String(), Wait: true})
	}
	epochs := epochsOf(cfg.Years, cfg.EpochYears)
	policy := w.policy.String()

	// Service-repeat computes its keys in set-up, keeping each result's
	// served bytes as the reference every later answer must match.
	var (
		refs [][]byte
		recs []persist.ResultRecord
	)
	if !w.fresh() {
		refs = make([][]byte, w.chips)
		recs = make([]persist.ResultRecord, w.chips)
		t0 := time.Now()
		lr := closedLoop(ctx, 0, w.chips, w.chips, func(_, k int) (float64, time.Duration, error) {
			seed := chipSeed(o.seed, k)
			st, s0, s1, err := submit(seed)
			if err == nil {
				recs[k], err = checkResult(st.Result, seed, policy, epochs)
			}
			refs[k] = st.Result
			return cfg.Years, s1.Sub(s0), err
		})
		if lr.failed > 0 {
			return nil, fmt.Errorf("computing service-repeat keys: %s", lr.problems[0])
		}
		t1 := time.Now()
		tr.add(0, setupID, "hayatd.warmup", t0, t1)
		out.setupExtra = t1.Sub(t0).Seconds()
	}
	tr.close(setupID, time.Now())
	out.setups = starts

	before, err := fetchMetrics(ctx, hc, d.base)
	if err != nil {
		return nil, err
	}
	var (
		mu        sync.Mutex
		first     = map[int][]byte{}
		firstRecs = map[int]persist.ResultRecord{}
		simulated []persist.ResultRecord
		bytesOut  int
		traceSec  float64
	)
	minOps := minSamples(w.tail)
	if w.fresh() {
		minOps = max(minOps, digestRequests)
	}
	lr := closedLoop(ctx, o.seconds, minOps, w.limit, func(_, k int) (float64, time.Duration, error) {
		seed := chipSeed(o.seed, k)
		if !w.fresh() {
			seed = chipSeed(o.seed, k%w.chips)
		}
		st, t0, t1, err := submit(seed)
		if err != nil {
			return 0, 0, err
		}
		if o.trace {
			ts := time.Now()
			tr.add(k+1, 0, "http.lifetime", t0, t1)
			mu.Lock()
			traceSec += time.Since(ts).Seconds()
			mu.Unlock()
		}
		var rec persist.ResultRecord
		if w.fresh() {
			if rec, err = checkResult(st.Result, seed, policy, epochs); err != nil {
				return 0, 0, err
			}
		} else if !st.Cached || !bytes.Equal(st.Result, refs[k%w.chips]) {
			return 0, 0, fmt.Errorf("chip %d: answer is not the cached result computed in set-up", seed)
		}
		mu.Lock()
		defer mu.Unlock()
		bytesOut += len(st.Result)
		if w.fresh() {
			simulated = append(simulated, rec)
			if k < digestRequests {
				first[k], firstRecs[k] = st.Result, rec
			}
		}
		return cfg.Years, t1.Sub(t0), nil
	})
	out.loop = lr
	after, err := fetchMetrics(ctx, hc, d.base)
	if err != nil {
		return nil, err
	}
	if !w.fresh() {
		for k := range refs {
			if err := verifyProof(ctx, hc, d.base, submit, chipSeed(o.seed, k), refs[k]); err != nil {
				lr.fail(fmt.Sprintf("chip %d: %v", chipSeed(o.seed, k), err))
			}
		}
	}
	if out.rssKB, err = peakRSSKB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	if w.fresh() {
		for k := 0; k < digestRequests; k++ {
			if data, ok := first[k]; ok {
				refs = append(refs, data)
				recs = append(recs, firstRecs[k])
			}
		}
	}
	out.digest = digest(refs)
	if len(recs) > 0 {
		out.stats = simStats(recs, ambientK)
	}
	if o.trace {
		out.spans = tr
		serviceLayers(out.layers, before, after, lr, cfg, simulated, bytesOut)
		busy := 0.0
		for c := 0; c < clients; c++ {
			busy += lr.end[c]
		}
		if busy > 0 {
			out.layers["trace.overhead_ratio"] = 1 - traceSec/busy
		}
	}
	return out, nil
}

// digestRequests is how many service-fresh results results_digest covers.
const digestRequests = 8

func (w workload) fresh() bool { return w.chips == 0 }

// lifetimeRequest is the body of POST /v1/lifetime.
type lifetimeRequest struct {
	Config hayat.Config `json:"config"`
	Seed   int64        `json:"seed"`
	Policy string       `json:"policy"`
	Wait   bool         `json:"wait"`
}

// jobStatus is the part of hayatd's job status the benchmark reads.
type jobStatus struct {
	ID     string          `json:"job_id"`
	State  string          `json:"state"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// postLifetime submits one lifetime job and returns its status, when the
// request was sent and when the whole response had arrived.
func postLifetime(ctx context.Context, hc *http.Client, base string, req lifetimeRequest) (st jobStatus, sent, done time.Time, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return st, sent, done, err
	}
	sent = time.Now()
	data, err := call(ctx, hc, http.MethodPost, base+"/v1/lifetime", body)
	done = time.Now()
	if err != nil {
		return st, sent, done, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, sent, done, fmt.Errorf("decoding job status: %w", err)
	}
	if st.State != "done" {
		return st, sent, done, fmt.Errorf("job %s is %s: %s", st.ID, st.State, st.Error)
	}
	return st, sent, done, nil
}

// call sends one request and returns the response body; any status but
// 200 or 202 is an error.
func call(ctx context.Context, hc *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// verifyProof submits the chip's job once more, fetches its Merkle
// inclusion proof and raw result bytes, and checks that the proof verifies
// and that the bytes are the reference result.
func verifyProof(ctx context.Context, hc *http.Client, base string, submit func(int64) (jobStatus, time.Time, time.Time, error), seed int64, ref []byte) error {
	st, _, _, err := submit(seed)
	if err != nil {
		return err
	}
	data, err := call(ctx, hc, http.MethodGet, base+"/v1/jobs/"+st.ID+"/proof", nil)
	if err != nil {
		return err
	}
	var pr struct {
		Root  string       `json:"segment_root"`
		Proof merkle.Proof `json:"proof"`
	}
	if err := json.Unmarshal(data, &pr); err != nil {
		return fmt.Errorf("decoding proof: %w", err)
	}
	root, err := merkle.ParseHash(pr.Root)
	if err != nil {
		return err
	}
	raw, err := call(ctx, hc, http.MethodGet, base+"/v1/jobs/"+st.ID+"/result", nil)
	if err != nil {
		return err
	}
	if err := merkle.Verify(pr.Proof, raw, root); err != nil {
		return err
	}
	var a, b bytes.Buffer
	if json.Compact(&a, raw) != nil || json.Compact(&b, ref) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
		return errors.New("proven result bytes differ from the result served in set-up")
	}
	return nil
}

// metricsSnapshot is the part of hayatd's GET /metrics the benchmark reads.
type metricsSnapshot struct {
	Cache        struct{ Hits, Misses int64 }
	Artifacts    struct{ Hits, Misses int64 }
	Merkle       struct{ Leaves int64 }
	SimRuns      int64                `json:"sim_runs"`
	StageSeconds map[string]histogram `json:"stage_seconds"`
	EpochStages  map[string]histogram `json:"epoch_stages"`
}

type histogram struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum_s"`
}

func fetchMetrics(ctx context.Context, hc *http.Client, base string) (metricsSnapshot, error) {
	var m metricsSnapshot
	data, err := call(ctx, hc, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

// serviceLayers derives the per-layer metrics of a traced service run
// from the /metrics deltas across its measured phase. Stage times are
// means per job that ran the stage; engine-stage times are means per
// simulated lifetime.
func serviceLayers(l map[string]float64, a, b metricsSnapshot, lr *loopResult, cfg hayat.Config, simulated []persist.ResultRecord, bytesOut int) {
	delta := func(m, n map[string]histogram, name string) (float64, float64) {
		return n[name].Sum - m[name].Sum, float64(n[name].Count - m[name].Count)
	}
	perCount := func(sum, count float64) float64 {
		if count == 0 {
			return 0
		}
		return sum / count
	}
	stageTotal := 0.0
	for _, st := range []string{"admission", "queue_wait", "setup", "simulate", "encode"} {
		sum, n := delta(a.StageSeconds, b.StageSeconds, st)
		l["service."+st+"_s"] = perCount(sum, n)
		stageTotal += sum
	}
	requests := float64(len(lr.lat))
	clientTotal := 0.0
	for _, x := range lr.lat {
		clientTotal += x
	}
	l["service.unattributed_s"] = perCount(clientTotal-stageTotal, requests)
	l["service.result_bytes"] = perCount(float64(bytesOut), requests)
	l["service.cache_hit_ratio"] = hitRatio(b.Cache.Hits-a.Cache.Hits, b.Cache.Misses-a.Cache.Misses)
	l["service.sim_runs"] = float64(b.SimRuns - a.SimRuns)
	l["merkle.leaves"] = float64(b.Merkle.Leaves - a.Merkle.Leaves)
	l["hayat.new_chip_s"] = l["service.setup_s"]
	l["hayat.artifact_hit_ratio"] = hitRatio(b.Artifacts.Hits-a.Artifacts.Hits, b.Artifacts.Misses-a.Artifacts.Misses)

	_, lifetimes := delta(a.StageSeconds, b.StageSeconds, "simulate")
	mapS, maps := delta(a.EpochStages, b.EpochStages, "mapping")
	winS, wins := delta(a.EpochStages, b.EpochStages, "thermal")
	ageS, ages := delta(a.EpochStages, b.EpochStages, "aging")
	steps := wins * stepsPerWindow(cfg)
	l["sim.run_lifetime_s"] = l["service.simulate_s"]
	l["policy.map_s"] = perCount(mapS, lifetimes)
	l["thermal.window_s"] = perCount(winS, lifetimes)
	l["aging.advance_s"] = perCount(ageS, lifetimes)
	if lifetimes > 0 {
		l["sim.self_s"] = l["sim.run_lifetime_s"] - l["policy.map_s"] - l["thermal.window_s"] - l["aging.advance_s"]
	}
	l["sim.epochs"] = wins
	l["policy.ms_per_decision"] = perCount(mapS, maps) * 1e3
	l["thermal.steps"] = steps
	l["thermal.us_per_step"] = perCount(winS, steps) * 1e6
	l["aging.advances"] = ages * float64(cfg.Rows*cfg.Cols)
	l["dtm.events"], l["policy.placed_ratio"] = dtmAndPlacement(simulated)
}

// daemon is one hayatd process the benchmark started.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    string
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// startDaemon starts hayatd with its data under dir and returns once its
// /readyz answers 200.
func startDaemon(ctx context.Context, hc *http.Client, bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logPath := filepath.Join(dir, "hayatd.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.CommandContext(ctx, bin, "-addr", addr, "-workers", strconv.Itoa(clients),
		"-data", filepath.Join(dir, "data"), "-journal", filepath.Join(dir, "journal"),
		"-audit", filepath.Join(dir, "audit"))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logPath, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(time.Minute)
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("hayatd exited while starting (%w): %s", d.err, d.logTail())
		default:
		}
		if _, err := call(ctx, hc, http.MethodGet, d.base+"/readyz", nil); err == nil {
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("hayatd not ready after a minute: %s", d.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop shuts hayatd down with SIGTERM, as an operator would, and waits
// for it to exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // it may have exited already; Wait reports how
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		d.kill()
		return fmt.Errorf("hayatd did not stop within a minute of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("hayatd: %w: %s", d.err, d.logTail())
	}
	return nil
}

// kill ends hayatd at once and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if it has exited already
	<-d.exited
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.log) // best effort: this only decorates an error
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}
