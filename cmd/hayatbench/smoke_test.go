package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"testing"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/persist"
)

// tiny shrinks a workload to a 4×4 grid, one simulated year, two chips
// and at most 20 requests.
func tiny(w workload) workload {
	w.cfg.Rows, w.cfg.Cols, w.cfg.Years = 4, 4, 1
	switch {
	case !w.service:
		w.chips = 2
		w.limit = 2 * len(w.dark)
	case w.fresh():
		w.limit = 20
	default:
		w.chips = 2
		w.limit = 20
	}
	return w
}

// TestSmoke runs every workload at a tiny size, traced and untraced, and
// checks that each passes its output checks and stresses the layer it is
// meant to.
func TestSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the service workloads build hayatd with the go command")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := findRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			run := runLifetime
			if w.service {
				run = runService
			}
			var digests []string
			for _, traced := range []bool{false, true} {
				o := runOpts{root: root, work: t.TempDir(), seed: 3, seconds: time.Minute, trace: traced}
				out, err := run(context.Background(), w, o)
				if err != nil {
					t.Fatal(err)
				}
				rep := newReport(w, o, out)
				if !rep.Correct || rep.Attempted != w.limit {
					t.Fatalf("traced=%v: correct=%v attempted=%d (want %d) problems=%v", traced, rep.Correct, rep.Attempted, w.limit, rep.Problems)
				}
				for name, m := range rep.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
						t.Errorf("traced=%v: %s = %v", traced, name, m.Value)
					}
				}
				if !traced {
					for _, m := range endToEnd {
						if rep.Metrics[m.name].Value <= 0 {
							t.Errorf("%s = %v, want a positive value", m.name, rep.Metrics[m.name].Value)
						}
					}
				}
				digests = append(digests, rep.Digest)
				if traced {
					checkLayers(t, w, out.layers)
				}
			}
			if digests[0] != digests[1] {
				t.Errorf("traced run's results_digest %s differs from the untraced %s", digests[1], digests[0])
			}
		})
	}
}

// checkLayers checks that a traced run's layers ran as the workload
// claims.
func checkLayers(t *testing.T, w workload, l map[string]float64) {
	t.Helper()
	switch {
	case !w.service:
		if l["policy.map_s"] <= 0 || l["thermal.window_s"] <= 0 || l["aging.advance_s"] <= 0 {
			t.Errorf("engine stages missing: %v", l)
		}
		if sum := l["policy.map_s"] + l["thermal.window_s"] + l["aging.advance_s"] + l["sim.self_s"]; math.Abs(sum-l["sim.run_lifetime_s"]) > 1e-6 {
			t.Errorf("stages plus self time %v != run time %v", sum, l["sim.run_lifetime_s"])
		}
		if r := l["trace.overhead_ratio"]; r <= 0 {
			t.Errorf("trace.overhead_ratio = %v", r)
		}
	case w.fresh():
		if l["service.sim_runs"] != float64(w.limit) || l["service.cache_hit_ratio"] != 0 || l["merkle.leaves"] != float64(w.limit) {
			t.Errorf("fresh requests: sim_runs %v, cache_hit_ratio %v, merkle.leaves %v; want %d, 0, %d",
				l["service.sim_runs"], l["service.cache_hit_ratio"], l["merkle.leaves"], w.limit, w.limit)
		}
	default:
		if l["service.sim_runs"] != 0 || l["service.cache_hit_ratio"] != 1 {
			t.Errorf("repeat requests: sim_runs %v, cache_hit_ratio %v; want 0 and 1", l["service.sim_runs"], l["service.cache_hit_ratio"])
		}
	}
}

// The output checks must reject a result that breaks any invariant.
func TestCheckResultRejects(t *testing.T) {
	cfg := hayat.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Years = 4, 4, 1
	sys, err := hayat.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := sys.NewChip(7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chip.RunLifetime(hayat.PolicyHayat)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	epochs := epochsOf(cfg.Years, cfg.EpochYears)
	good, err := checkResult(buf.Bytes(), 7, "Hayat", epochs)
	if err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	for _, c := range []struct {
		name    string
		seed    int64
		policy  string
		corrupt func(r *persist.ResultRecord)
	}{
		{"other chip", 8, "Hayat", func(*persist.ResultRecord) {}},
		{"other policy", 7, "VAA", func(*persist.ResultRecord) {}},
		{"epoch missing", 7, "Hayat", func(r *persist.ResultRecord) { r.Epochs = r.Epochs[1:] }},
		{"health above 1", 7, "Hayat", func(r *persist.ResultRecord) { r.FinalHealth[0] = 1.5 }},
		{"health below 0", 7, "Hayat", func(r *persist.ResultRecord) { r.Epochs[2].MinHealth = -0.1 }},
		{"fmax rises", 7, "Hayat", func(r *persist.ResultRecord) { r.Epochs[1].AvgFMax = r.Epochs[0].AvgFMax + 1 }},
	} {
		r := good
		r.FinalHealth = append([]float64(nil), good.FinalHealth...)
		r.Epochs = append([]persist.EpochRecord(nil), good.Epochs...)
		c.corrupt(&r)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkResult(data, c.seed, c.policy, epochs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
