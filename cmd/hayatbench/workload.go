package main

import (
	"github.com/kit-ces/hayat"
)

// workload is one set of inputs the benchmark runs. Every input comes from
// chipSeed, so the same --seed always produces the same inputs.
type workload struct {
	name string
	why  string
	// service runs the workload against a hayatd process through its
	// HTTP API; otherwise it calls the hayat library in-process.
	service bool
	policy  hayat.Policy
	// cfg is the simulated platform; each job's MixSeed is its chip seed.
	cfg hayat.Config
	// dark lists the dark fractions each chip runs at (lifetime
	// workloads); the jobs are chips × dark, interleaved by chip.
	dark []float64
	// chips is the number of distinct chip seeds: the chips a lifetime
	// workload builds in set-up, or the keys service-repeat warms up.
	// Zero means every request gets a new chip seed (service-fresh).
	chips int
	// tail is the percentile latency_tail_s reports: the highest that
	// keeps at least ten samples beyond it (see minSamples) at the
	// workload's usual sample count in a 10-s run.
	tail float64
	// limit, when positive, stops the measured phase after this many
	// operations even if time remains (tests use it to stay small).
	limit int
}

// chipSeed is the seed of chip i of a run with the given --seed. It also
// seeds the workload mix that chip runs, so a run averages over as many
// mixes as chips instead of running one mix, whose cost would shift every
// job of the run the same way, on all of them.
func chipSeed(seed int64, i int) int64 { return 1000*seed + int64(i) }

func defaultConfig(years float64) hayat.Config {
	c := hayat.DefaultConfig()
	c.Years = years
	return c
}

// workloads are the benchmark's workloads, in the order -workload all
// runs them.
var workloads = []workload{
	{
		name:   "lifetime-hayat",
		why:    "Hayat half of the paper's campaign: the mapping stage takes most of engine time, so policy changes show here",
		policy: hayat.PolicyHayat,
		cfg:    defaultConfig(10),
		dark:   []float64{0.25, 0.50},
		chips:  12,
		tail:   0.75,
	},
	{
		name:   "lifetime-vaa",
		why:    "VAA half of the campaign: the thermal window and DTM dominate and mapping is cheap, so solver changes show here",
		policy: hayat.PolicyVAA,
		cfg:    defaultConfig(10),
		dark:   []float64{0.25, 0.50},
		chips:  12,
		tail:   0.75,
	},
	{
		name:    "service-fresh",
		why:     "hayatd write path: every request is a new 2-year chip, paying chip set-up, simulation, journal, store and Merkle writes",
		service: true,
		policy:  hayat.PolicyHayat,
		cfg:     defaultConfig(2),
		tail:    0.75,
	},
	{
		name:    "service-repeat",
		why:     "hayatd read path: requests cycle over 8 cached 10-year results, so the simulator never runs and HTTP, admission and JSON dominate",
		service: true,
		policy:  hayat.PolicyHayat,
		cfg:     defaultConfig(10),
		chips:   8,
		tail:    0.99,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef describes one metric as BENCHMARK.json lists it; the bounds
// of the end-to-end metrics live only there.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user sees, reported by every untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"chip_years_per_s", "chip-yr/s", "higher"},
	{"requests_per_s", "1/s", "higher"},
	{"latency_p50_s", "s", "lower"},
	{"latency_tail_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics a traced run reports, named after the module
// whose time or work they measure. A layer that does not run during a
// workload's measured phase reads 0 there.
var perLayer = []metricDef{
	{"hayat.new_system_s", "s", "lower"},
	{"hayat.new_chip_s", "s", "lower"},
	{"hayat.artifact_hit_ratio", "ratio", "higher"},
	{"sim.run_lifetime_s", "s", "lower"},
	{"sim.self_s", "s", "lower"},
	{"sim.epochs", "count", "higher"},
	{"sim.alloc_bytes_per_epoch", "B", "lower"},
	{"sim.gc_cycles", "count", "lower"},
	{"policy.map_s", "s", "lower"},
	{"policy.ms_per_decision", "ms", "lower"},
	{"policy.placed_ratio", "ratio", "higher"},
	{"thermal.window_s", "s", "lower"},
	{"thermal.us_per_step", "us", "lower"},
	{"thermal.steps", "count", "higher"},
	{"dtm.events", "count", "lower"},
	{"aging.advance_s", "s", "lower"},
	{"aging.advances", "count", "higher"},
	{"service.admission_s", "s", "lower"},
	{"service.queue_wait_s", "s", "lower"},
	{"service.setup_s", "s", "lower"},
	{"service.simulate_s", "s", "lower"},
	{"service.encode_s", "s", "lower"},
	{"service.unattributed_s", "s", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.sim_runs", "count", "lower"},
	{"service.result_bytes", "B", "lower"},
	{"merkle.leaves", "count", "higher"},
	{"trace.overhead_ratio", "ratio", "higher"},
}
