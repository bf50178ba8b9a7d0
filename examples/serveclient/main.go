// serveclient drives hayatd the way a remote client would: it starts the
// lifetime-simulation service in-process on a random port, submits one
// population job per policy over HTTP/JSON, polls each job's per-seed
// progress, and computes the paper's Fig. 11 headline — the lifetime
// extension Hayat buys over the variability-agnostic baseline — purely
// from the JSON the service returns. It then repeats one request to show
// the content-addressed cache answering without re-simulating, submits a
// seed sweep through POST /v1/batch (one admission pass and one journal
// write for the whole request), and closes by fetching each result's
// Merkle inclusion proof and verifying it client-side — including that a
// single flipped result byte is rejected.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/kit-ces/hayat/internal/merkle"
	"github.com/kit-ces/hayat/internal/service"
)

// httpc is the one HTTP client every request goes through. Unlike the
// bare http.Get/Post package helpers it has an explicit end-to-end
// timeout, so a wedged server can never hang the demo, and every request
// carries a context so Ctrl-C propagates as cancellation mid-poll.
var httpc = &http.Client{Timeout: 30 * time.Second}

// getJSON GETs url and decodes the JSON body into dst.
func getJSON(ctx context.Context, url string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(dst)
}

// postJSON POSTs body to url and returns the response.
func postJSON(ctx context.Context, url, body string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return httpc.Do(req)
}

// populationRecord is the slice of the service's population JSON this
// client needs: the average-frequency-over-lifetime series.
type populationRecord struct {
	Policy        string    `json:"policy"`
	Chips         int       `json:"chips"`
	Years         []float64 `json:"years"`
	AvgFMaxSeries []float64 `json:"avg_fmax_series_hz"`
}

type jobStatus struct {
	ID       string `json:"job_id"`
	State    string `json:"state"`
	Cached   bool   `json:"cached"`
	Error    string `json:"error"`
	Progress *struct {
		Done  int `json:"done"`
		Total int `json:"total"`
	} `json:"progress"`
	Result json.RawMessage `json:"result"`
}

func main() {
	rows := flag.Int("rows", 4, "core grid rows")
	cols := flag.Int("cols", 4, "core grid cols")
	years := flag.Float64("years", 7, "simulated lifetime in years")
	chips := flag.Int("chips", 3, "population size per policy")
	required := flag.Float64("required", 5, "required lifetime in years (Fig. 11 x-axis)")
	flag.Parse()

	// Ctrl-C cancels the root context and with it every in-flight
	// request and poll loop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Start hayatd in-process on a random loopback port.
	svc, err := service.New(service.Options{Logf: log.Printf})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: svc.Handler()}
	go func() { _ = hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("hayatd listening on %s\n\n", base)

	cfgJSON := fmt.Sprintf(`{"Rows":%d,"Cols":%d,"Years":%g,"WindowSeconds":1,"MixApps":2}`,
		*rows, *cols, *years)

	records := map[string]populationRecord{}
	for _, policy := range []string{"vaa", "hayat"} {
		st := submitPopulation(ctx, base, cfgJSON, policy, *chips)
		fmt.Printf("[%s] submitted %s (%d chips)\n", policy, st.ID, *chips)
		st = pollToCompletion(ctx, base, st.ID, policy)
		var rec populationRecord
		if err := json.Unmarshal(st.Result, &rec); err != nil {
			log.Fatalf("[%s] decoding result: %v", policy, err)
		}
		records[policy] = rec
	}

	// Fig. 11, computed client-side: the baseline's average frequency at
	// the required lifetime defines end-of-life; the extension is how much
	// later Hayat's population reaches that frequency.
	base0 := records["vaa"]
	cand := records["hayat"]
	threshold := interp(base0.Years, base0.AvgFMaxSeries, *required)
	crossing, capped := crossingYear(cand.Years, cand.AvgFMaxSeries, threshold)
	ext := crossing - *required
	fmt.Printf("\nFig. 11 @ required lifetime %.1f yr:\n", *required)
	fmt.Printf("  end-of-life threshold (%s avg fmax at %.1f yr): %.3f GHz\n",
		base0.Policy, *required, threshold/1e9)
	atLeast := ""
	if capped {
		atLeast = "≥ " // Hayat never dropped to the threshold inside the horizon
	}
	fmt.Printf("  Hayat lifetime extension: %s%+.2f years\n", atLeast, ext)

	// A repeated identical request is answered from the cache.
	again := submitPopulation(ctx, base, cfgJSON, "hayat", *chips)
	fmt.Printf("\nresubmitted the Hayat job: state=%s cached=%v (no re-simulation)\n",
		again.State, again.Cached)

	demoBatchProvenance(ctx, base, *rows, *cols)

	downCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(downCtx)
	_ = svc.Shutdown(downCtx)
}

// proofResponse mirrors GET /v1/jobs/{id}/proof.
type proofResponse struct {
	JobID   string       `json:"job_id"`
	Key     string       `json:"key"`
	Segment int          `json:"segment"`
	Root    string       `json:"segment_root"`
	Proof   merkle.Proof `json:"proof"`
}

// demoBatchProvenance runs the batch + provenance half of the demo: a
// short seed sweep submitted in ONE POST /v1/batch, then a client-side
// Merkle verification of every result.
func demoBatchProvenance(ctx context.Context, base string, rows, cols int) {
	const sweep = 4
	cfgJSON := fmt.Sprintf(`{"Rows":%d,"Cols":%d,"Years":2,"WindowSeconds":1,"MixApps":2}`, rows, cols)
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for seed := 1; seed <= sweep; seed++ {
		if seed > 1 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"config":%s,"seed":%d,"policy":"hayat"}`, cfgJSON, seed)
	}
	sb.WriteString(`]}`)

	resp, err := postJSON(ctx, base+"/v1/batch", sb.String())
	if err != nil {
		log.Fatal(err)
	}
	var br struct {
		Results []struct {
			Index  int        `json:"index"`
			Status int        `json:"status"`
			Job    *jobStatus `json:"job"`
			Error  string     `json:"error"`
		} `json:"results"`
		Accepted int `json:"accepted"`
		Rejected int `json:"rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nbatch: %d-seed sweep in one POST /v1/batch → %d accepted, %d rejected (one journal fsync)\n",
		sweep, br.Accepted, br.Rejected)

	for _, item := range br.Results {
		if item.Job == nil {
			log.Fatalf("batch item %d: HTTP %d %s", item.Index, item.Status, item.Error)
		}
		pollToCompletion(ctx, base, item.Job.ID, fmt.Sprintf("seed %d", item.Index+1))

		// Fetch the CANONICAL result bytes (the status envelope re-indents
		// embedded JSON; /result serves exactly what the audit leaf covers)
		// and the inclusion proof, then verify client-side — the service's
		// word is not taken for it.
		rreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+item.Job.ID+"/result", nil)
		if err != nil {
			log.Fatal(err)
		}
		rresp, err := httpc.Do(rreq)
		if err != nil {
			log.Fatal(err)
		}
		result, err := io.ReadAll(rresp.Body)
		rresp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		var pr proofResponse
		if err := getJSON(ctx, base+"/v1/jobs/"+item.Job.ID+"/proof", &pr); err != nil {
			log.Fatal(err)
		}
		root, err := merkle.ParseHash(pr.Root)
		if err != nil {
			log.Fatalf("job %s: bad segment root: %v", item.Job.ID, err)
		}
		if err := merkle.Verify(pr.Proof, result, root); err != nil {
			log.Fatalf("job %s: inclusion proof REJECTED: %v", item.Job.ID, err)
		}
		fmt.Printf("provenance: %s verified against segment %d root %s…\n",
			item.Job.ID, pr.Segment, pr.Root[:12])

		if item.Index == 0 {
			// Tamper demo: one flipped byte in the result must be caught.
			tampered := append([]byte(nil), result...)
			tampered[len(tampered)/2] ^= 1
			if err := merkle.Verify(pr.Proof, tampered, root); err == nil {
				log.Fatal("tampered result verified — provenance is broken")
			}
			fmt.Printf("provenance: flipped one result byte → proof rejected, as it must be\n")
		}
	}
}

func submitPopulation(ctx context.Context, base, cfgJSON, policy string, chips int) jobStatus {
	body := fmt.Sprintf(`{"config":%s,"base_seed":1,"chips":%d,"policy":%q}`, cfgJSON, chips, policy)
	resp, err := postJSON(ctx, base+"/v1/population", body)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		log.Fatalf("submit %s: HTTP %d: %s", policy, resp.StatusCode, st.Error)
	}
	return st
}

func pollToCompletion(ctx context.Context, base, id, policy string) jobStatus {
	lastDone := -1
	for {
		var st jobStatus
		if err := getJSON(ctx, base+"/v1/jobs/"+id, &st); err != nil {
			log.Fatal(err)
		}
		if st.Progress != nil && st.Progress.Done != lastDone {
			lastDone = st.Progress.Done
			fmt.Printf("[%s] %s: %d/%d chips done\n", policy, st.State, st.Progress.Done, st.Progress.Total)
		}
		switch st.State {
		case "done":
			return st
		case "failed", "cancelled":
			log.Fatalf("[%s] job %s %s: %s", policy, id, st.State, st.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// interp linearly interpolates series(x) with flat extrapolation at the
// ends.
func interp(xs, ys []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if x <= xs[0] {
		return ys[0]
	}
	for i := 1; i < len(xs); i++ {
		if x <= xs[i] {
			t := (x - xs[i-1]) / (xs[i] - xs[i-1])
			return ys[i-1] + t*(ys[i]-ys[i-1])
		}
	}
	return ys[len(ys)-1]
}

// crossingYear finds when a monotonically decaying series first drops to
// the threshold; capped reports that it never did within the horizon (the
// crossing is then the horizon itself, a lower bound).
func crossingYear(xs, ys []float64, threshold float64) (year float64, capped bool) {
	for i, y := range ys {
		if y <= threshold {
			if i == 0 || ys[i-1] == y {
				return xs[i], false
			}
			t := (ys[i-1] - threshold) / (ys[i-1] - y)
			return xs[i-1] + t*(xs[i]-xs[i-1]), false
		}
	}
	return xs[len(xs)-1], true
}
