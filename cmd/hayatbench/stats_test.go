package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestMinSamples(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{
		{0.5, 20},    // 19 samples leave 9 beyond the median
		{0.75, 40},   // 39 leave 9 beyond p75
		{0.9, 100},   // 99 leave 9 beyond p90
		{0.99, 1000}, // 999 leave 9 beyond p99
	} {
		n := minSamples(c.q)
		if n != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.q, n, c.want)
		}
		if beyond := n - rank(n, c.q); beyond != minBeyond {
			t.Errorf("%d samples leave %d beyond p%v, want %d", n, beyond, 100*c.q, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.9); got != 108 {
		t.Errorf("p90 of 1..120 = %v, want 108 (12 samples beyond)", got)
	}
	if got := percentile(xs, 0.5); got != 60 {
		t.Errorf("p50 of 1..120 = %v, want 60", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4), whose
// values these are.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3, 9, 7.5}, 2, 4, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("%v: quartiles %v %v median %v, want %v %v %v", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.med)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 10}
	kids := []span{
		{Start: 1, End: 3},
		{Start: 2, End: 4},   // overlaps the first: [1,4] counts once
		{Start: 9, End: 12},  // only [9,10] lies inside the parent
		{Start: 11, End: 13}, // wholly outside
	}
	if got := selfTime(parent, kids); math.Abs(got-6) > 1e-12 {
		t.Errorf("selfTime = %v, want 6", got)
	}
	if got := selfTime(parent, nil); got != 10 {
		t.Errorf("selfTime without children = %v, want 10", got)
	}
}

func TestDecide(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		better string
		bound  float64
		want   string
	}{
		{"same runs", base, "lower", 0.1, "no regression"},
		{"slower within bound", scale(1.05), "lower", 0.1, "no regression"},
		{"slower beyond bound", scale(1.2), "lower", 0.1, "regressed"},
		{"faster everywhere", scale(0.9), "lower", 0.1, "gain"},
		{"higher is better", scale(0.8), "higher", 0.1, "regressed"},
		{"spread wider than bound", scale(1.2), "lower", 0.01, "unresolved"},
		{"spread wide, every change run better", scale(0.5), "lower", 0.01, "gain"},
		{"wins too few pairs", append(scale(0.9)[:8], 120, 120), "lower", 0.1, "no regression"},
	} {
		if got := decide(base, c.change, c.better, c.bound).outcome; got != c.want {
			t.Errorf("%s: outcome %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json must describe exactly the workloads and metrics this
// program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
