package main

import (
	"os"
	"path/filepath"
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
