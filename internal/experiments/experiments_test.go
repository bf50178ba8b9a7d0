package experiments

import (
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/kit-ces/hayat"
)

// testCache shares chip artifacts across the tests, as cmd/experiments
// shares them across one campaign.
var testCache = hayat.NewArtifactCache()

// EXPERIMENTS.md's numbers are only reproducible under the configuration
// its header states, so the header must name Config's discretisation and
// the library default it departs from.
func TestCampaignConfigMatchesExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(\d+(?:\.\d+)?)-ms thermal steps, (\d+(?:\.\d+)?)-s windows and (\d+)-month aging epochs`).FindSubmatch(doc)
	d := regexp.MustCompile(`library's default window is (\d+(?:\.\d+)?) s`).FindSubmatch(doc)
	if m == nil || d == nil {
		t.Fatal("EXPERIMENTS.md's header does not state the campaign's step, window and epoch lengths and the library's default window")
	}
	num := func(b []byte) float64 {
		v, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cfg := Config(0.50, 10)
	for _, c := range []struct {
		what         string
		stated, code float64
	}{
		{"step [ms]", num(m[1]), cfg.StepSeconds * 1000},
		{"window [s]", num(m[2]), cfg.WindowSeconds},
		{"epoch [months]", num(m[3]), cfg.EpochYears * 12},
		{"library default window [s]", num(d[1]), hayat.DefaultConfig().WindowSeconds},
	} {
		if math.Abs(c.stated-c.code) > 1e-9 {
			t.Errorf("%s: EXPERIMENTS.md states %v, the code uses %v", c.what, c.stated, c.code)
		}
	}
}

func TestFig1bShape(t *testing.T) {
	series, tsv := Fig1b(1, 10)
	if len(series) != 4 {
		t.Fatalf("temperature family size %d", len(series))
	}
	for tc, s := range series {
		if len(s) != 11 {
			t.Fatalf("%d°C series length %d", tc, len(s))
		}
		if s[0] != 1 {
			t.Fatalf("%d°C year-0 factor %v", tc, s[0])
		}
		for y := 1; y < len(s); y++ {
			if s[y] < s[y-1] {
				t.Fatalf("%d°C factor decreases at year %d", tc, y)
			}
		}
	}
	// Hotter curves sit above colder curves at year 10.
	if !(series[140][10] > series[100][10] && series[100][10] > series[75][10] && series[75][10] > series[25][10]) {
		t.Fatal("temperature ordering violated at year 10")
	}
	if !strings.Contains(tsv, "140C") {
		t.Fatal("TSV header incomplete")
	}
}

func TestFig2AnalysisShort(t *testing.T) {
	chips, err := Fig2(testCache, []int64{1}, 1 /* year, keeps the test fast */)
	if err != nil {
		t.Fatal(err)
	}
	if len(chips) != 2 {
		t.Fatalf("%d analyses, want 2 (two DCMs)", len(chips))
	}
	for _, c := range chips {
		if c.AvgF10 >= c.AvgF0 {
			t.Fatalf("%s: no aging (%.3f → %.3f)", c.DCMName, c.AvgF0, c.AvgF10)
		}
		if c.MaxT < c.AvgT || c.AvgT < 318 {
			t.Fatalf("%s: temperatures implausible (max %.1f avg %.1f)", c.DCMName, c.MaxT, c.AvgT)
		}
	}
	table := Fig2oTable(chips)
	if !strings.Contains(table, "DCM-1") || !strings.Contains(table, "DCM-2") {
		t.Fatalf("table missing DCM rows:\n%s", table)
	}
	maps := RenderFig2Maps(chips[0])
	if !strings.Contains(maps, "year 10") || !strings.Contains(maps, "heat map") {
		t.Fatalf("maps rendering incomplete:\n%s", maps)
	}
}

func TestRunPairSmall(t *testing.T) {
	ps, err := RunPair(testCache, 1, 2, 0.50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Hayat.Chips != 2 || ps.VAA.Chips != 2 {
		t.Fatal("population sizes wrong")
	}
	if ps.Comparison.DarkFraction != 0.50 {
		t.Fatal("comparison dark fraction wrong")
	}
	bars := RenderBars(ps)
	for _, want := range []string{"Fig. 7", "Fig. 8", "Fig. 9", "Fig.10", "raw:"} {
		if !strings.Contains(bars, want) {
			t.Fatalf("bars missing %q:\n%s", want, bars)
		}
	}
	series := Fig11Series([]PairSummary{ps})
	if !strings.Contains(series, "Hayat_GHz") {
		t.Fatal("Fig. 11 series malformed")
	}
	life := Fig11Lifetimes([]PairSummary{ps}, []float64{1})
	if !strings.Contains(life, "threshold") {
		t.Fatal("Fig. 11 lifetimes malformed")
	}
}

func TestSVGHelpers(t *testing.T) {
	if svg := SVGFig1b(1, 5); !strings.Contains(svg, "</svg>") || !strings.Contains(svg, "140") {
		t.Fatal("Fig. 1(b) SVG malformed")
	}
	svg1a, err := SVGFig1a(340)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg1a, "ΔVth") {
		t.Fatal("Fig. 1(a) SVG malformed")
	}
	if _, tsv, err := Fig1a(340); err != nil || !strings.Contains(tsv, "dVth_mV") {
		t.Fatalf("Fig1a TSV malformed: %v", err)
	}
	ps, err := RunPair(testCache, 1, 1, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if svg := SVGFigBars(ps); !strings.Contains(svg, "Fig.7 DTM events") {
		t.Fatal("bars SVG malformed")
	}
	if svg := SVGFig11(ps); !strings.Contains(svg, "Hayat") || !strings.Contains(svg, "VAA") {
		t.Fatal("Fig. 11 SVG malformed")
	}
	chips, err := Fig2(testCache, []int64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if svg := SVGFig2Temps(chips[0]); !strings.Contains(svg, "steady-state") {
		t.Fatal("Fig. 2 temp SVG malformed")
	}
	if svg := SVGFig2Freq10(chips[0]); !strings.Contains(svg, "</svg>") || !strings.Contains(svg, "year 10") {
		t.Fatal("freq map SVG malformed")
	}
}

func TestGuardbandAnalysis(t *testing.T) {
	rows, table, err := Guardband(testCache, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Static <= 0 || r.Static >= 0.5 {
			t.Fatalf("chip %d static guardband %v implausible", r.ChipSeed, r.Static)
		}
		// The static (worst-case-corner) reserve must dominate what the
		// managed chip actually suffers.
		if r.Hayat > r.Static || r.VAA > r.Static {
			t.Fatalf("chip %d degradation exceeds the worst-case reserve: %+v", r.ChipSeed, r)
		}
		if r.Hayat <= 0 || r.VAA <= 0 {
			t.Fatalf("chip %d shows no degradation: %+v", r.ChipSeed, r)
		}
	}
	if !strings.Contains(table, "recovered") {
		t.Fatal("table missing summary line")
	}
}

func TestBinShift(t *testing.T) {
	out, err := BinShift(testCache, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"VAA:", "Hayat:", "downgraded"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
