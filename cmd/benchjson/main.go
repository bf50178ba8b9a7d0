// Command benchjson converts `go test -bench` output (read from stdin)
// into a small JSON baseline document, so benchmark numbers can be
// committed and diffed across PRs without parsing free-form text twice.
//
// Usage:
//
//	go test ./internal/service -run '^$' -bench BenchmarkSubmitThroughput | go run ./cmd/benchjson > submit.json
//
// The document records the environment (go version, GOMAXPROCS, the cpu
// line go test prints) and every benchmark result. Families with mode=
// sub-benchmarks additionally get their speedup over the mode=single
// member.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Document is the committed baseline shape.
type Document struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPU        string   `json:"cpu,omitempty"`
	Package    string   `json:"package,omitempty"`
	Results    []Result `json:"results"`
	// ModeSpeedups maps "family/mode=X" → ns/op(mode=single) / ns/op(mode=X)
	// for benchmark families with mode= sub-benchmarks (e.g. the batch-vs-
	// single submit throughput comparison).
	ModeSpeedups map[string]float64 `json:"speedups_vs_single,omitempty"`
}

// benchLine matches e.g.
// "BenchmarkSingleChipEpoch-8   97   12034567 ns/op   1234 B/op   56 allocs/op"
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	doc := Document{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		r := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		doc.Results = append(doc.Results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(doc.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	doc.ModeSpeedups = familySpeedups(doc.Results, "/mode=", "mode=single")

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// familySpeedups computes, for every benchmark whose name contains sep
// (e.g. "/mode="), the ratio of its family's base sub-benchmark (e.g.
// "mode=single") to its own ns/op.
func familySpeedups(results []Result, sep, base string) map[string]float64 {
	bases := make(map[string]float64) // family → base ns/op
	for _, r := range results {
		if fam, ok := splitOn(r.Name, sep); ok && strings.HasSuffix(r.Name, base) {
			bases[fam] = r.NsPerOp
		}
	}
	out := make(map[string]float64)
	for _, r := range results {
		fam, ok := splitOn(r.Name, sep)
		if !ok || strings.HasSuffix(r.Name, base) {
			continue
		}
		if b, ok := bases[fam]; ok && r.NsPerOp > 0 {
			out[r.Name] = round3(b / r.NsPerOp)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// splitOn returns the family name before the last occurrence of sep.
func splitOn(name, sep string) (string, bool) {
	i := strings.LastIndex(name, sep)
	if i < 0 {
		return "", false
	}
	return name[:i], true
}

func round3(x float64) float64 {
	return float64(int64(x*1000+0.5)) / 1000
}
