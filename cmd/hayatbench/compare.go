package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is the outcome of comparing one metric on one workload between
// a base and a changed set of runs.
type verdict struct {
	baseMed, baseQ1, baseQ3       float64
	changeMed, changeQ1, changeQ3 float64
	wins, pairs                   int
	worse                         float64 // change's median worse than base's, as a share of base's (negative: better)
	outcome                       string  // gain, no regression, regressed or unresolved
}

// decide applies the benchmark's rules to one metric. Runs pair up by
// index (compare sorts both sides by seed). The change regresses when its
// median is worse than the base's by more than bound; when the base's own
// quartile spread is wider than bound the metric is unresolved instead,
// unless every change run beats every base run. A gain needs the change
// to win at least nine tenths of the pairs, ties counting for neither, and
// the medians to differ by more than the base's quartile spread.
func decide(base, change []float64, better string, bound float64) verdict {
	v := verdict{baseMed: median(base), changeMed: median(change)}
	v.baseQ1, v.baseQ3 = quartiles(base)
	v.changeQ1, v.changeQ3 = quartiles(change)
	sign := 1.0 // +1 when higher is better
	if better == "lower" {
		sign = -1
	}
	for i := 0; i < len(base) && i < len(change); i++ {
		v.pairs++
		if sign*(change[i]-base[i]) > 0 {
			v.wins++
		}
	}
	v.worse = sign * (v.baseMed - v.changeMed) / math.Abs(v.baseMed)
	spread := (v.baseQ3 - v.baseQ1) / math.Abs(v.baseMed)
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if sign*(c-b) <= 0 {
				allBetter = false
			}
		}
	}
	gain := v.pairs > 0 && float64(v.wins) >= 0.9*float64(v.pairs) &&
		v.worse < 0 && math.Abs(v.changeMed-v.baseMed) > v.baseQ3-v.baseQ1
	switch {
	case spread > bound && !allBetter:
		v.outcome = "unresolved"
	case v.worse > bound:
		v.outcome = "regressed"
	case gain:
		v.outcome = "gain"
	default:
		v.outcome = "no regression"
	}
	return v
}

// compareMain compares two directories of reports written with --out:
// every end-to-end metric of every workload, with its bound from
// BENCHMARK.json, plus the results digests of runs with the same seed.
// It exits 1 when anything regressed, is unresolved, or has a different
// digest.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("hayatbench compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: hayatbench compare [--benchmark FILE] BASEDIR CHANGEDIR")
		return 2
	}
	var bench benchmarkFile
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hayatbench compare:", err)
		return 1
	}
	base, err := loadReports(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hayatbench compare:", err)
		return 1
	}
	change, err := loadReports(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hayatbench compare:", err)
		return 1
	}

	status := 0
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-15s %-17s %12s %12s %12s %12s %8s %6s %7s  %s\n",
		"workload", "metric", "base_med", "base_iqr", "change_med", "change_iqr", "worse", "bound", "wins", "outcome")
	for _, name := range names {
		b, c := base[name], change[name]
		if len(c) == 0 {
			fmt.Printf("%-15s missing from %s\n", name, fs.Arg(1))
			status = 1
			continue
		}
		for _, m := range bench.EndToEnd {
			v := decide(values(b, m.Name), values(c, m.Name), m.Better, m.Bound)
			fmt.Printf("%-15s %-17s %12.6g %12.6g %12.6g %12.6g %7.1f%% %5.0f%% %3d/%-3d  %s\n",
				name, m.Name, v.baseMed, v.baseQ3-v.baseQ1, v.changeMed, v.changeQ3-v.changeQ1,
				100*v.worse, 100*m.Bound, v.wins, v.pairs, v.outcome)
			if v.outcome == "regressed" || v.outcome == "unresolved" {
				status = 1
			}
		}
		for _, rb := range b {
			for _, rc := range c {
				if rb.Seed == rc.Seed && rb.Digest != rc.Digest {
					fmt.Printf("%-15s seed %d: results_digest differs: %s vs %s\n", name, rb.Seed, rb.Digest, rc.Digest)
					status = 1
				}
			}
		}
	}
	return status
}

// loadReports reads every untraced report in dir, grouped by workload and
// sorted by seed.
func loadReports(dir string) (map[string][]report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]report{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced reports in %s", dir)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

func values(rs []report, name string) []float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = r.Metrics[name].Value
	}
	return vs
}
