package hayat

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// goldenPath holds the SHA-256 fingerprints of canonical Result bytes
// (LifetimeResult.WriteJSON) for a fixed matrix of lifetimes. They pin
// what the simulator's output *is*, not just that it is reproducible:
// a change that moves any of them changes stored and replicated results
// and must be justified as such.
var goldenPath = filepath.Join("testdata", "golden_fingerprints.txt")

// goldenCase is one row of the fingerprint matrix: {Hayat, VAA} ×
// {25 %, 50 % dark} × 2 chip seeds × 2-year lifetimes on the default 8×8
// platform.
type goldenCase struct {
	policy Policy
	dark   float64
	seed   int64
}

func (g goldenCase) name() string {
	return fmt.Sprintf("%s/dark=%.2f/seed=%d", g.policy, g.dark, g.seed)
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, p := range []Policy{PolicyHayat, PolicyVAA} {
		for _, dark := range []float64{0.25, 0.50} {
			for _, seed := range []int64{1, 2} {
				cs = append(cs, goldenCase{p, dark, seed})
			}
		}
	}
	return cs
}

// goldenFingerprint runs one case and hashes its canonical bytes.
func goldenFingerprint(cache *ArtifactCache, g goldenCase) (string, error) {
	cfg := DefaultConfig()
	cfg.Years = 2
	cfg.DarkFraction = g.dark
	sys, err := NewSystemWith(cfg, cache)
	if err != nil {
		return "", err
	}
	chip, err := sys.NewChip(g.seed)
	if err != nil {
		return "", err
	}
	res, err := chip.RunLifetime(g.policy)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// goldenEngineHeader prefixes the header line naming the EngineVersion
// the fingerprints were computed under.
const goldenEngineHeader = "# Engine version: "

// readGolden returns the fingerprints by case name and the engine version
// the file's header names (0 when it names none).
func readGolden(t *testing.T) (want map[string]string, engine int) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want = make(map[string]string)
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if v, ok := strings.CutPrefix(line, goldenEngineHeader); ok {
			if _, err := fmt.Sscanf(v, "%d", &engine); err != nil {
				t.Fatalf("%s: malformed engine header %q", goldenPath, line)
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		want[f[0]] = f[1]
	}
	return want, engine
}

// TestGoldenResultFingerprints recomputes every fingerprint and compares
// it with the checked-in value, and checks that the file's header names
// the running EngineVersion, so bumping the version forces the file to
// be regenerated under it. On a mismatch it prints the full table in the
// file's format.
func TestGoldenResultFingerprints(t *testing.T) {
	want, engine := readGolden(t)
	if engine != EngineVersion {
		t.Errorf("%s names engine version %d, the engine is version %d", goldenPath, engine, EngineVersion)
	}
	cases := goldenCases()
	got := make([]string, len(cases))
	errs := make([]error, len(cases))
	cache := NewArtifactCache()
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, g := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			got[i], errs[i] = goldenFingerprint(cache, g)
		}()
	}
	wg.Wait()
	var table strings.Builder
	mismatch := false
	for i, g := range cases {
		if errs[i] != nil {
			t.Fatalf("%s: %v", g.name(), errs[i])
		}
		fmt.Fprintf(&table, "%s %s\n", g.name(), got[i])
		if want[g.name()] != got[i] {
			mismatch = true
			t.Errorf("%s: fingerprint %s, golden %q", g.name(), got[i], want[g.name()])
		}
	}
	if len(want) != len(cases) {
		mismatch = true
		t.Errorf("%s holds %d fingerprints, the matrix has %d", goldenPath, len(want), len(cases))
	}
	if mismatch {
		t.Logf("recomputed fingerprints (engine version %d):\n%s", EngineVersion, table.String())
	}
}
