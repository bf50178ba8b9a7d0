package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stdout runs run(fig, …) and returns what it printed.
func stdout(t *testing.T, fig string, chips int, years float64, baseSeed int64) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = run(fig, chips, years, baseSeed)
	os.Stdout = saved
	if err != nil {
		t.Fatalf("-fig %s: %v", fig, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// "all" derives every population figure from its two pairs instead of
// re-simulating lifetimes, and must print exactly what the standalone
// figures print, in its order.
func TestAllEqualsStandaloneFigures(t *testing.T) {
	const chips, years, seed = 2, 1, 1
	all := stdout(t, "all", chips, years, seed)
	var want string
	for _, fig := range []string{"1a", "1b", "2", "7-10", "11", "11maps", "guardband", "bins"} {
		want += stdout(t, fig, chips, years, seed)
	}
	if all != want {
		t.Fatalf("-fig all printed\n%s\nthe standalone figures printed\n%s", all, want)
	}
}

// The full campaign prints experiments_output.txt and draws figures/
// byte for byte. Like the root package's golden fingerprints, the pinned
// bytes are those of an FMA-capable amd64 host (ROADMAP item 7).
func TestCampaignMatchesPinnedArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 25-chip, 10-year campaign; skipped under -short")
	}
	const regen = "if the change is meant to move them, regenerate both with `make campaign`"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	wantOut, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantSVGs, err := filepath.Glob(filepath.Join(root, "figures", "*.svg"))
	if err != nil || len(wantSVGs) == 0 {
		t.Fatalf("no pinned SVGs under figures/ (%v)", err)
	}

	// The campaign's "wrote figures/…" lines name the SVG directory as
	// given, so it runs from a scratch directory with a relative one.
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Errorf("restoring the working directory: %v", err)
		}
	})
	if err := os.Mkdir("figures", 0o755); err != nil {
		t.Fatal(err)
	}
	svgDir = "figures"
	t.Cleanup(func() { svgDir = "" })

	if got := stdout(t, "all", 25, 10, 1); got != string(wantOut) {
		t.Errorf("campaign output differs from experiments_output.txt at %s; %s", firstDiff(got, string(wantOut)), regen)
	}
	gotSVGs, err := filepath.Glob(filepath.Join("figures", "*.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSVGs) != len(wantSVGs) {
		t.Errorf("campaign drew %d SVGs, figures/ pins %d; %s", len(gotSVGs), len(wantSVGs), regen)
	}
	for _, want := range wantSVGs {
		name := filepath.Base(want)
		w, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join("figures", name))
		if err != nil {
			t.Errorf("campaign did not draw %s: %v", name, err)
			continue
		}
		if string(g) != string(w) {
			t.Errorf("figures/%s differs at %s; %s", name, firstDiff(string(g), string(w)), regen)
		}
	}
}

// firstDiff names the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("the end: got %d lines, want %d", len(g), len(w))
}
