package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/persist"
	"github.com/kit-ces/hayat/internal/sim"
)

// job is one lifetime simulation: a chip, which also seeds its workload
// mix, at a dark fraction.
type job struct {
	seed int64
	dark float64
}

// stageSpan names the span of each engine stage after its layer.
var stageSpan = map[sim.Stage]string{
	sim.StageMapping: "policy.map",
	sim.StageThermal: "thermal.window",
	sim.StageAging:   "aging.advance",
}

// runLifetime runs a lifetime workload in-process: set-up builds the
// platform and every chip of the run into a fresh ArtifactCache, then
// `clients` goroutines run whole lifetimes, each job on its own System over
// that cache. Traced, each job runs twice, with and without the stage
// observer, so the trace's overhead and its effect on results are measured
// on identical work.
func runLifetime(ctx context.Context, w workload, o runOpts) (*outcome, error) {
	cfg := w.cfg
	var jobs []job
	for i := 0; i < w.chips; i++ {
		for _, d := range w.dark {
			jobs = append(jobs, job{seed: chipSeed(o.seed, i), dark: d})
		}
	}
	tr := newTracer()
	out := &outcome{layers: map[string]float64{}}

	var (
		cache   *hayat.ArtifactCache
		setupID int
	)
	for r := 0; r < setupRepeats; r++ {
		runtime.GC() // garbage from the previous set-up must not count
		t0 := time.Now()
		setupID = tr.open(0, 0, "setup", t0)
		var err error
		cache, err = buildChips(cfg, w, o.seed, tr, setupID)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.close(setupID, t1)
		out.setups = append(out.setups, t1.Sub(t0).Seconds())
	}

	// run simulates one job and returns its result in the served JSON form
	// and the wall time of NewChip plus RunLifetimeContext. Traced, the
	// job's own System files the engine's stage spans under its run span.
	run := func(k int, j job, traced bool) ([]byte, time.Duration, error) {
		jc := cfg
		jc.DarkFraction, jc.MixSeed = j.dark, j.seed
		sys, err := hayat.NewSystemWith(jc, cache)
		if err != nil {
			return nil, 0, err
		}
		var root, runID int
		if traced {
			sys.SetStageObserver(func(st sim.Stage, dur time.Duration) {
				end := time.Now()
				tr.add(k+1, runID, stageSpan[st], end.Add(-dur), end)
			})
		}
		t0 := time.Now()
		if traced {
			root = tr.open(k+1, 0, "lifetime", t0)
		}
		chip, err := sys.NewChip(j.seed)
		if err != nil {
			return nil, 0, err
		}
		t1 := time.Now()
		if traced {
			tr.add(k+1, root, "hayat.new_chip", t0, t1)
			runID = tr.open(k+1, root, "sim.run_lifetime", t1)
		}
		res, err := chip.RunLifetimeContext(ctx, w.policy)
		t2 := time.Now()
		if traced {
			tr.close(runID, t2)
			tr.close(root, t2)
		}
		if err != nil {
			return nil, 0, err
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return nil, 0, err
		}
		return buf.Bytes(), t2.Sub(t0), nil
	}

	epochs := epochsOf(cfg.Years, cfg.EpochYears)
	var (
		mu                sync.Mutex
		results           = make([][]byte, len(jobs)) // each job's result
		recs              = make([]persist.ResultRecord, len(jobs))
		plainDur, tracDur time.Duration
	)
	// check applies the output checks to operation k's result: it must be
	// valid and byte-identical to every other run of the same job.
	check := func(k int, data []byte) error {
		i := k % len(jobs)
		rec, err := checkResult(data, jobs[i].seed, w.policy.String(), epochs)
		if err != nil {
			return fmt.Errorf("job %d: %w", k, err)
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case results[i] == nil:
			results[i], recs[i] = data, rec
		case !bytes.Equal(data, results[i]):
			return fmt.Errorf("job %d: result differs from another run of the same chip", k)
		}
		return nil
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	as0 := cache.Stats()
	lr := closedLoop(ctx, o.seconds, max(len(jobs), minSamples(w.tail)), w.limit, func(_, k int) (float64, time.Duration, error) {
		j := jobs[k%len(jobs)]
		if !o.trace {
			data, d, err := run(k, j, false)
			if err == nil {
				err = check(k, data)
			}
			return cfg.Years, d, err
		}
		// Alternate which twin runs first, so neither always finds the
		// caches warm.
		order := []bool{false, true}
		if k%2 == 1 {
			order = []bool{true, false}
		}
		var data [2][]byte // untraced, traced
		var dur [2]time.Duration
		for _, traced := range order {
			i := 0
			if traced {
				i = 1
			}
			var err error
			if data[i], dur[i], err = run(k, j, traced); err != nil {
				return 0, 0, err
			}
		}
		if !bytes.Equal(data[0], data[1]) {
			return 0, 0, fmt.Errorf("job %d: traced result differs from the untraced one", k)
		}
		mu.Lock()
		plainDur += dur[0]
		tracDur += dur[1]
		mu.Unlock()
		return cfg.Years, dur[0], check(k, data[0])
	})
	runtime.ReadMemStats(&ms1)
	as1 := cache.Stats()
	out.loop = lr
	var err error
	if out.rssKB, err = peakRSSKB("self"); err != nil {
		return nil, err
	}
	var checked []persist.ResultRecord
	for i := range results {
		if results[i] != nil {
			checked = append(checked, recs[i])
		}
	}
	out.digest = digest(results)
	if len(checked) > 0 {
		out.stats = simStats(checked, ambientK)
	}

	if o.trace {
		spans := tr.snapshot()
		out.spans = tr
		lifetimeLayers(out.layers, spans, setupID, cfg, checked)
		epochsRun := float64(lr.attempted * epochs * 2)
		out.layers["sim.alloc_bytes_per_epoch"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / epochsRun
		out.layers["sim.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		out.layers["hayat.artifact_hit_ratio"] = hitRatio(as1.Hits-as0.Hits, as1.Misses-as0.Misses)
		if tracDur > 0 {
			out.layers["trace.overhead_ratio"] = plainDur.Seconds() / tracDur.Seconds()
		}
	}
	return out, nil
}

// buildChips builds the platform and every chip of the workload into a
// fresh ArtifactCache, on `clients` goroutines.
func buildChips(cfg hayat.Config, w workload, seed int64, tr *tracer, setupID int) (*hayat.ArtifactCache, error) {
	cache := hayat.NewArtifactCache()
	cfg.DarkFraction = w.dark[0]
	t0 := time.Now()
	sys, err := hayat.NewSystemWith(cfg, cache)
	if err != nil {
		return nil, err
	}
	tr.add(0, setupID, "hayat.new_system", t0, time.Now())
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		errs []error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= w.chips {
					return
				}
				t0 := time.Now()
				if _, err := sys.NewChip(chipSeed(seed, i)); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				tr.add(0, setupID, "hayat.new_chip", t0, time.Now())
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, fmt.Errorf("building chips: %w", errs[0])
	}
	return cache, nil
}

// lifetimeLayers derives the per-layer metrics of a traced lifetime run
// from its spans and the results of its distinct jobs. Engine-stage times
// are means per lifetime.
func lifetimeLayers(l map[string]float64, spans []span, setupID int, cfg hayat.Config, recs []persist.ResultRecord) {
	kids := childrenOf(spans)
	setup := summarize(kids[setupID])
	l["hayat.new_system_s"] = setup.sum["hayat.new_system"]
	if n := setup.count["hayat.new_chip"]; n > 0 {
		l["hayat.new_chip_s"] = setup.sum["hayat.new_chip"] / float64(n)
	}

	st := summarize(spans)
	lifetimes := float64(st.count["sim.run_lifetime"])
	if lifetimes == 0 {
		return
	}
	self := 0.0
	for _, s := range spans {
		if s.Name == "sim.run_lifetime" {
			self += selfTime(s, kids[s.ID])
		}
	}
	epochs := float64(st.count["thermal.window"])
	steps := epochs * stepsPerWindow(cfg)
	l["sim.run_lifetime_s"] = st.sum["sim.run_lifetime"] / lifetimes
	l["sim.self_s"] = self / lifetimes
	l["sim.epochs"] = epochs
	l["policy.map_s"] = st.sum["policy.map"] / lifetimes
	if n := st.count["policy.map"]; n > 0 {
		l["policy.ms_per_decision"] = st.sum["policy.map"] / float64(n) * 1e3
	}
	l["thermal.window_s"] = st.sum["thermal.window"] / lifetimes
	l["thermal.steps"] = steps
	if steps > 0 {
		l["thermal.us_per_step"] = st.sum["thermal.window"] / steps * 1e6
	}
	l["aging.advance_s"] = st.sum["aging.advance"] / lifetimes
	l["aging.advances"] = float64(st.count["aging.advance"] * cfg.Rows * cfg.Cols)
	l["dtm.events"], l["policy.placed_ratio"] = dtmAndPlacement(recs)
}

// stepsPerWindow is the number of implicit-Euler steps in one epoch's
// transient thermal window.
func stepsPerWindow(cfg hayat.Config) float64 { return math.Round(cfg.WindowSeconds / cfg.StepSeconds) }

func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
