package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/cluster"
	"github.com/kit-ces/hayat/internal/faultinject"
)

// drillCfg is the per-chip workload of the kill-a-peer drill: 16 epochs
// of a few milliseconds each, so six chips finish in test time. The
// simulator alone can finish the victim's chips before the kill lands,
// so the victim's helper arms drillStall: each of its chips then takes
// at least 0.8 s, and the kill always finds them unfinished.
func drillCfg() hayat.Config {
	cfg := hayat.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Years = 4
	cfg.WindowSeconds = 1
	cfg.MixApps = 2
	return cfg
}

// drillStall is the victim helper's HAYAT_FAILPOINTS spec (see drillCfg).
const drillStall = "sim.thermal-solve=sleep(50ms)"

// drillURLs reserves n loopback base URLs for a drill's helper nodes on
// ports in [10000, 32768), below the ephemeral ranges of Linux (32768–
// 60999 by default) and of IANA (49152–65535). An outgoing connection
// only takes an ephemeral port, so no node's dial can take a drill port
// between its reservation and the helper binding it, or while a killed
// helper's port waits for its restart; a dial to a killed helper is
// refused.
func drillURLs(t *testing.T, n int) []string {
	t.Helper()
	const lowest, ephemeral = 10000, 32768
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	seen := make(map[int]bool)
	var urls []string
	for tries := 0; len(urls) < n; tries++ {
		if tries == 1000 {
			t.Fatalf("no %d free ports in [%d, %d)", n, lowest, ephemeral)
		}
		port := lowest + rng.Intn(ephemeral-lowest)
		if seen[port] {
			continue
		}
		seen[port] = true
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue // bound by something else
		}
		ln.Close()
		urls = append(urls, "http://"+addr)
	}
	return urls
}

// TestClusterNodeHelper is not a test: it is one node of the 3-node
// drill cluster, a real hayatd-like server whose failpoints are armed
// from HAYAT_FAILPOINTS, and which runs until its parent kills it or the
// test binary exits.
func TestClusterNodeHelper(t *testing.T) {
	self := os.Getenv("HAYAT_CLUSTER_SELF")
	if os.Getenv("HAYAT_CLUSTER_HELPER") != "1" || self == "" {
		t.Skip("cluster-drill helper; spawned by TestClusterKillPeerDrill")
	}
	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "cluster helper:", err)
		os.Exit(1)
	}
	s, err := New(Options{
		Workers: 2,
		Cluster: ClusterOptions{
			Self:          self,
			Peers:         strings.Split(os.Getenv("HAYAT_CLUSTER_PEERS"), ","),
			ProbeInterval: 100 * time.Millisecond,
			StealAfter:    3 * time.Second,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster helper:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", strings.TrimPrefix(self, "http://"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster helper:", err)
		os.Exit(1)
	}
	_ = http.Serve(ln, s.Handler()) // runs until SIGKILL
}

// drillNode spawns one helper node bound to urls[i], peered with the
// other entries of urls. failpoints is its HAYAT_FAILPOINTS spec ("" =
// none).
func drillNode(t *testing.T, urls []string, i int, failpoints string) *exec.Cmd {
	t.Helper()
	var peers []string
	for j, u := range urls {
		if j != i {
			peers = append(peers, u)
		}
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestClusterNodeHelper$")
	cmd.Env = append(os.Environ(),
		"HAYAT_CLUSTER_HELPER=1",
		"HAYAT_CLUSTER_SELF="+urls[i],
		"HAYAT_CLUSTER_PEERS="+strings.Join(peers, ","),
		faultinject.EnvVar+"="+failpoints)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// The kill-a-peer drill of the cluster milestone: 3 real hayatd nodes, a
// population fanned out across them, one owning peer SIGKILLed while it
// holds unfinished chips. Required outcome: the job completes with a
// Result byte-identical to a single-node run, its Merkle proof verifies,
// the client never sees a 5xx, and the dead peer shows "down" in the
// coordinator's /metrics.
func TestClusterKillPeerDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster drill")
	}

	// Reserve three ports so the circular peer URLs are known before
	// any node starts.
	urls := drillURLs(t, 3)

	// Pick a base seed for which the victim (node 2) is assigned at
	// least one of the six chip keys — computed with the SAME
	// bounded-load assignment the coordinator will run, not plain
	// ownership, because bounded load can spill a hot arc's chips.
	const chips = 6
	ring := cluster.NewRing(urls)
	victim, coordinator := urls[2], urls[0]
	base, remote := int64(-1), 0
	for b := int64(0); b < 10_000 && base < 0; b++ {
		popReq := request{Kind: KindPopulation, Config: NormalizeConfig(drillCfg()), Policy: "Hayat", Seed: b, Chips: chips}
		keys := make([]string, chips)
		for i := 0; i < chips; i++ {
			_, keys[i] = chipKey(popReq, b+int64(i))
		}
		assign, ok := ring.Assign(keys)
		if ok && len(assign[victim]) > 0 {
			base, remote = b, chips-len(assign[coordinator])
		}
	}
	if base < 0 {
		t.Fatal("no base seed in 10k assigns the victim a chip")
	}

	cmds := make([]*exec.Cmd, 3)
	for i := range cmds {
		stall := ""
		if urls[i] == victim {
			stall = drillStall
		}
		cmds[i] = drillNode(t, urls, i, stall)
	}
	t.Cleanup(func() {
		for _, cmd := range cmds {
			if cmd.ProcessState == nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		}
	})

	// Every parent request goes through here: a 5xx anywhere fails the
	// drill (bounded retries happen inside the nodes, never surface).
	do := func(method, url string, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("client-visible 5xx: %s %s -> %d", method, url, resp.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// All three nodes ready (listening + first peer sweep done).
	for _, u := range urls {
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(u + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never became ready", u)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	// Submit the population to the coordinator. Populations never
	// forward wholesale — node 0 coordinates and fans chips out.
	body := fmt.Sprintf(`{"config":{"Rows":4,"Cols":4,"Years":4,"WindowSeconds":1,"MixApps":2},"base_seed":%d,"chips":%d,"policy":"hayat"}`, base, chips)
	resp, data := do("POST", coordinator+"/v1/population", body)
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: HTTP %d %s", resp.StatusCode, data)
	}

	// SIGKILL the victim once the fan-out has accepted every remote
	// chip — no drain, no warning, chips still running over there.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var met MetricsSnapshot
		_, data := do("GET", coordinator+"/metrics", "")
		if err := json.Unmarshal(data, &met); err != nil {
			t.Fatal(err)
		}
		if met.Cluster.ChipsForwarded+met.Cluster.ChipsStolen >= int64(remote) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fan-out never reached %d remote chips: %+v", remote, met.Cluster)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmds[2].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[2].Wait()
	t.Logf("killed %s with %d remote chips in flight", victim, remote)

	// The population must still run to done — stolen or re-routed
	// chips simulate elsewhere, correctness never depends on ownership.
	var final JobStatus
	deadline = time.Now().Add(3 * time.Minute)
	for {
		_, data := do("GET", coordinator+"/v1/jobs/"+st.ID, "")
		if err := json.Unmarshal(data, &final); err != nil {
			t.Fatal(err)
		}
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("population never finished: %+v", final)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if final.State != JobDone {
		t.Fatalf("population state %s (%s)", final.State, final.Error)
	}

	// Byte-identity against an uninterrupted single-node run, and a
	// verifying Merkle proof over exactly those bytes.
	_, result := do("GET", coordinator+"/v1/jobs/"+st.ID+"/result", "")
	if !bytes.Equal(result, popReference(t, drillCfg(), base, chips)) {
		t.Fatal("post-kill population differs from an uninterrupted single-node run")
	}
	_, prData := do("GET", coordinator+"/v1/jobs/"+st.ID+"/proof", "")
	var pr ProofResponse
	if err := json.Unmarshal(prData, &pr); err != nil {
		t.Fatal(err)
	}
	if err := verifyProof(t, pr, result); err != nil {
		t.Fatalf("proof after kill: %v", err)
	}

	// The coordinator must have noticed: victim probed down, and the
	// kill visibly disrupted at least one chip (stolen or re-routed).
	deadline = time.Now().Add(10 * time.Second)
	for {
		var met MetricsSnapshot
		_, data := do("GET", coordinator+"/metrics", "")
		if err := json.Unmarshal(data, &met); err != nil {
			t.Fatal(err)
		}
		if ps, ok := met.Cluster.Peers[victim]; ok && ps.State == "down" {
			if met.Cluster.ChipsStolen+met.Cluster.Reroutes == 0 {
				t.Fatalf("kill was invisible: no steals or re-routes (%+v)", met.Cluster)
			}
			if met.Cluster.ChipsForwarded == 0 {
				t.Fatalf("no chips were ever forwarded: %+v", met.Cluster)
			}
			t.Logf("drill: forwarded=%d fetched=%d stolen=%d rerouted=%d",
				met.Cluster.ChipsForwarded, met.Cluster.ChipsFetched,
				met.Cluster.ChipsStolen, met.Cluster.Reroutes)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never marked down: %+v", met.Cluster.Peers)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
