package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestAPI(t *testing.T) *httptest.Server {
	t.Helper()
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s = %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHTTPLifetimeWait(t *testing.T) {
	ts := newTestAPI(t)
	resp, err := http.Post(ts.URL+"/v1/lifetime", "application/json", strings.NewReader(
		`{"config":{"Rows":4,"Cols":4,"Years":1,"WindowSeconds":1,"MixApps":2},"seed":1,"policy":"hayat","wait":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 for wait=true", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || len(st.Result) == 0 {
		t.Fatalf("waited response: state=%s result=%d bytes", st.State, len(st.Result))
	}
	var rec struct {
		Policy string `json:"policy"`
	}
	if err := json.Unmarshal(st.Result, &rec); err != nil || rec.Policy != "Hayat" {
		t.Fatalf("embedded result: %v (policy %q)", err, rec.Policy)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	ts := newTestAPI(t)
	cases := []struct {
		name, path, body string
	}{
		{"malformed JSON", "/v1/lifetime", `{"seed":`},
		{"unknown body field", "/v1/lifetime", `{"seeed":1,"policy":"hayat"}`},
		{"unknown config field", "/v1/lifetime", `{"config":{"Rowz":4},"policy":"hayat"}`},
		{"unknown policy", "/v1/lifetime", `{"seed":1,"policy":"greedy"}`},
		{"bad config value", "/v1/lifetime", `{"config":{"Years":-1},"seed":1,"policy":"hayat"}`},
		{"zero chips", "/v1/population", `{"base_seed":1,"chips":0,"policy":"hayat"}`},
		{"degraded_ok is an unknown field", "/v1/lifetime", `{"seed":1,"policy":"hayat","degraded_ok":true}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if derr := json.NewDecoder(resp.Body).Decode(&eb); derr != nil {
			t.Errorf("%s: error body not JSON: %v", c.name, derr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if eb.Error == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}
}

func TestHTTPUnknownJob(t *testing.T) {
	ts := newTestAPI(t)
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestHTTPPopulationPollAndCancel(t *testing.T) {
	ts := newTestAPI(t)
	resp, err := http.Post(ts.URL+"/v1/population", "application/json", strings.NewReader(
		`{"config":{"Rows":4,"Cols":4,"Years":10,"WindowSeconds":1,"MixApps":2},"base_seed":1,"chips":4,"policy":"vaa"}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if st.Progress == nil || st.Progress.Total != 4 {
		t.Fatalf("submit progress %+v, want total 4", st.Progress)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d, want 200", dresp.StatusCode)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		cur := getStatus(t, ts, st.ID)
		if cur.State.Terminal() {
			if cur.State != JobCancelled {
				t.Fatalf("job ended %s, want cancelled", cur.State)
			}
			if cur.Progress.Done >= cur.Progress.Total {
				t.Fatalf("cancelled job completed all chips: %+v", cur.Progress)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	ts := newTestAPI(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Uptime < 0 {
		t.Fatalf("health %+v", health)
	}

	// Run one job so the metrics carry non-trivial numbers.
	wresp, err := http.Post(ts.URL+"/v1/lifetime", "application/json", strings.NewReader(
		`{"config":{"Rows":4,"Cols":4,"Years":1,"WindowSeconds":1,"MixApps":2},"seed":9,"policy":"vaa","wait":true}`))
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if snap.SimRuns != 1 || snap.Jobs.Done != 1 {
		t.Fatalf("metrics after one job: sim_runs=%d done=%d", snap.SimRuns, snap.Jobs.Done)
	}
	if snap.Artifacts.Platforms != 1 {
		t.Fatalf("artifact cache not reflected in metrics: %+v", snap.Artifacts)
	}
	h, ok := snap.StageSeconds["simulate"]
	if !ok || h.Count != 1 {
		t.Fatalf("simulate histogram %+v", h)
	}
}
