// Command hayatbench is hayat's end-to-end benchmark. It runs one named
// workload for a fixed time from a seed, checks every output, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) by
// name with their units; the last line of its output is one JSON object
// with the keys correct, attempted, failed and metrics. README.md lists
// the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash cmd/hayatbench/run.sh --workload NAME|all --seed N [--seconds S] [--trace 0|1] [--out DIR]
//	bash cmd/hayatbench/run.sh compare [--benchmark BENCHMARK.json] BASEDIR CHANGEDIR
//
// --out writes each run's full report into DIR; compare applies the
// benchmark's regression rules to two such directories.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/kit-ces/hayat/internal/thermal"
)

// ambientK is the ambient temperature of the default thermal model.
var ambientK = thermal.DefaultConfig().Ambient

// runOpts are the settings of one run.
type runOpts struct {
	root    string // repository root, holding go.mod and cmd/hayatd
	work    string // directory for builds, hayatd data and spans
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload run measured and checked.
type outcome struct {
	setups     []float64 // seconds per set-up repetition
	setupExtra float64   // set-up seconds paid once (service-repeat's keys)
	loop       *loopResult
	digest     string
	stats      map[string]float64 // simulated statistics
	rssKB      int64              // peak resident set of the process under test
	layers     map[string]float64 // per-layer metrics (traced runs)
	spans      *tracer            // traced runs
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything a run measured. Its first four fields are the last
// line of the run's output; --out writes all of it.
type report struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Samples   int                `json:"samples"`
	Tail      float64            `json:"tail_percentile"`
	Digest    string             `json:"results_digest"`
	Simulated map[string]float64 `json:"simulated"`
	Problems  []string           `json:"problems,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("hayatbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1: trace the run and report per-layer metrics")
	outDir := fs.String("out", "", "directory to write the run's full report into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "hayatbench: --trace must be 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "hayatbench: unknown workload %q\n", *name)
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hayatbench:", err)
		return 1
	}
	root, err := findRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hayatbench:", err)
		return 1
	}
	o := runOpts{root: root, work: filepath.Join(root, ".bench_build"), seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hayatbench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	run := runLifetime
	if w.service {
		run = runService
	}
	out, err := run(ctx, w, o)
	if err == nil {
		err = ctx.Err() // interrupted: what was measured is not a run
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hayatbench: %s: %v\n", w.name, err)
		return 1
	}
	rep := newReport(w, o, out)
	printReport(rep)
	if out.spans != nil {
		path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
		if err := out.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "hayatbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %s\n", path)
	}
	if *outDir != "" {
		if err := writeReport(*outDir, rep); err != nil {
			fmt.Fprintln(os.Stderr, "hayatbench:", err)
			return 1
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hayatbench:", err)
		return 1
	}
	fmt.Println(string(last))
	if !rep.Correct {
		return 1
	}
	return 0
}

// newReport turns a run's outcome into its metrics.
func newReport(w workload, o runOpts, out *outcome) report {
	lr := out.loop
	rep := report{
		Correct:   lr.failed == 0,
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Metrics:   map[string]metric{},
		Workload:  w.name,
		Seed:      o.seed,
		Seconds:   o.seconds.Seconds(),
		Trace:     o.trace,
		Samples:   len(lr.lat),
		Tail:      w.tail,
		Digest:    out.digest,
		Simulated: out.stats,
		Problems:  lr.problems,
	}
	if o.trace {
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{out.layers[m.name], m.unit}
		}
		return rep
	}
	lat := sortedCopy(lr.lat)
	vals := map[string]float64{
		"setup_s":          median(out.setups) + out.setupExtra,
		"chip_years_per_s": lr.chipYearsPerS(),
		"requests_per_s":   lr.requestsPerS(),
		"peak_rss_mb":      float64(out.rssKB) / 1024,
	}
	if len(lat) > 0 {
		vals["latency_p50_s"] = percentile(lat, 0.5)
		vals["latency_tail_s"] = percentile(lat, w.tail)
	}
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return rep
}

func printReport(rep report) {
	mode := "end-to-end"
	defs := endToEnd
	if rep.Trace {
		mode, defs = "per-layer (traced)", perLayer
	}
	fmt.Printf("hayatbench %s seed=%d seconds=%g: %s metrics\n", rep.Workload, rep.Seed, rep.Seconds, mode)
	for _, m := range defs {
		fmt.Printf("  %-28s %14.6g %-10s %s is better\n", m.name, rep.Metrics[m.name].Value, m.unit, m.better)
	}
	if !rep.Trace {
		fmt.Printf("  latency_tail_s is p%g of %d samples (%d beyond it)\n",
			rep.Tail*100, rep.Samples, rep.Samples-rank(max(rep.Samples, 1), rep.Tail))
	}
	fmt.Printf("  results_digest %s\n", rep.Digest)
	keys := make([]string, 0, len(rep.Simulated))
	for k := range rep.Simulated {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %.12g (simulated, not a speed)\n", k, rep.Simulated[k])
	}
	fmt.Printf("  checks: %d of %d operations attempted failed\n", rep.Failed, rep.Attempted)
	for _, p := range rep.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

func writeReport(dir string, rep report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, boolInt(rep.Trace))
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runAll runs every workload, each in a fresh process so that heap, caches
// and peak RSS never carry over from one workload to the next.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hayatbench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(args, "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "hayatbench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// module is the import path of the repository the benchmark measures.
const module = "github.com/kit-ces/hayat"

// findRoot walks up from dir to the directory whose go.mod declares the
// hayat module.
func findRoot(dir string) (string, error) {
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" && f[1] == module {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module %s above the working directory", module)
		}
		dir = parent
	}
}

// peakRSSKB reads the peak resident set size (VmHWM) of a process, in
// KiB; pid is a process ID or "self".
func peakRSSKB(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, errors.New("reading peak RSS: no VmHWM line")
}
