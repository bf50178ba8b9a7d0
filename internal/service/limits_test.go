package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/persist"
)

// assertNothingBuilt checks that the server has neither run a simulation
// nor built a platform: the oversized requests must be refused before the
// variation generator factors their covariance.
func assertNothingBuilt(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	var met MetricsSnapshot
	if err := getJSON(t, ts.URL+"/metrics", &met); err != nil {
		t.Fatal(err)
	}
	if met.SimRuns != 0 {
		t.Errorf("/metrics sim_runs = %d, want 0", met.SimRuns)
	}
	if built := s.arts.Stats().Platforms; built != 0 {
		t.Errorf("%d platform(s) built for rejected requests", built)
	}
}

// Every request path answers 400 for a grid beyond MaxCores or a
// population beyond MaxChips, without building anything.
func TestOversizedRequestsRejected(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const tiny = `"Years":1,"WindowSeconds":1,"MixApps":2`
	for _, c := range []struct{ name, path, body string }{
		{"200x200 lifetime", "/v1/lifetime", `{"config":{"Rows":200,"Cols":200},"seed":1,"policy":"hayat"}`},
		{"overflowing grid", "/v1/lifetime", `{"config":{"Rows":1,"Cols":1099511627776},"seed":1,"policy":"hayat"}`},
		{"10001-chip population", "/v1/population", `{"config":{"Rows":4,"Cols":4,` + tiny + `},"base_seed":1,"chips":10001,"policy":"hayat"}`},
	} {
		resp, _, msg := postJSON(t, ts, c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest || msg == "" {
			t.Errorf("%s: status %d (%q), want 400 with a message", c.name, resp.StatusCode, msg)
		}
	}

	body := `{"items":[` +
		`{"kind":"population","config":{"Rows":4,"Cols":4,` + tiny + `},"seed":1,"chips":10001,"policy":"hayat"},` +
		`{"config":{"Rows":200,"Cols":200},"seed":1,"policy":"hayat"}]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(br.Results) != 2 || br.Rejected != 2 {
		t.Fatalf("batch: HTTP %d, response %+v", resp.StatusCode, br)
	}
	for i, r := range br.Results {
		if r.Status != http.StatusBadRequest {
			t.Errorf("batch item %d: %+v, want 400", i, r)
		}
	}
	assertNothingBuilt(t, s, ts)
}

// A journal written before the bounds existed may hold an oversized
// request; recovery drops it instead of exhausting memory on every
// restart.
func TestRecoverDropsOversizedJournalEntry(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "jobs.journal")
	cfg := tinyCfg()
	cfg.Rows, cfg.Cols = 200, 200
	req := request{Kind: KindLifetime, Config: NormalizeConfig(cfg), Policy: "Hayat", Seed: 1, Chips: 1}
	payload, err := json.Marshal(journalRecord{Op: opSubmit, ID: "job-000007", Key: req.key(), Engine: hayat.EngineVersion, Req: &req, At: time.Now().UTC()})
	if err != nil {
		t.Fatal(err)
	}
	line, err := persist.EncodeFrameLine(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{Workers: 1, JournalPath: journalPath})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.Status("job-000007", false); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oversized journal entry recovered: %v", err)
	}
	if got := s.Metrics().JobsRecovered.Value(); got != 0 {
		t.Fatalf("jobs recovered %d, want 0", got)
	}
	assertNothingBuilt(t, s, ts)
}
