package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/circuit"
	"github.com/kit-ces/hayat/internal/cluster"
	"github.com/kit-ces/hayat/internal/store"
)

// replCfg is the per-job workload of the replication drill: small enough
// that single-chip lifetimes finish in well under a second, so the drill
// spends its time on replication and failure handling, not simulation.
func replCfg() hayat.Config {
	cfg := hayat.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Years = 2
	cfg.WindowSeconds = 1
	cfg.MixApps = 2
	return cfg
}

// TestReplicationNodeHelper is not a test: it is one node of the 3-node
// replication drill, a real hayatd-like server with a durable store and
// a fast anti-entropy sweep, running until its parent kills it.
func TestReplicationNodeHelper(t *testing.T) {
	self := os.Getenv("HAYAT_REPL_SELF")
	if os.Getenv("HAYAT_REPL_HELPER") != "1" || self == "" {
		t.Skip("replication-drill helper; spawned by TestReplicationKillOwnerDrill")
	}
	s, err := New(Options{
		Workers:             2,
		DataDir:             os.Getenv("HAYAT_REPL_DATA"),
		Replicas:            1, // replica set = owner + 1 ring successor
		AntiEntropyInterval: 500 * time.Millisecond,
		Retry:               circuit.Backoff{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		Cluster: ClusterOptions{
			Self:             self,
			Peers:            strings.Split(os.Getenv("HAYAT_REPL_PEERS"), ","),
			ProbeInterval:    100 * time.Millisecond,
			FailThreshold:    2,
			RecoverThreshold: 2,
			PollInterval:     25 * time.Millisecond,
			StealAfter:       3 * time.Second,
			AttemptTimeout:   5 * time.Second,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "replication helper:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", strings.TrimPrefix(self, "http://"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "replication helper:", err)
		os.Exit(1)
	}
	_ = http.Serve(ln, s.Handler()) // runs until SIGKILL
}

// replNode spawns one helper node bound to urls[i] with dataDir as its
// durable store.
func replNode(t *testing.T, urls []string, i int, dataDir string) *exec.Cmd {
	t.Helper()
	var peers []string
	for j, u := range urls {
		if j != i {
			peers = append(peers, u)
		}
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestReplicationNodeHelper$")
	cmd.Env = append(os.Environ(),
		"HAYAT_REPL_HELPER=1",
		"HAYAT_REPL_SELF="+urls[i],
		"HAYAT_REPL_PEERS="+strings.Join(peers, ","),
		"HAYAT_REPL_DATA="+dataDir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// The replicated-store drill: 3 real hayatd nodes with replication
// factor R=1 (owner + 1 successor). A result is computed on its owner
// and replicated; the owner is then SIGKILLed. Required outcome: a
// client re-requesting the result gets byte-identical, Merkle-verifying
// bytes from a replica without any re-simulation and without a single
// client-visible 5xx; a result completed while the owner was dead
// accrues replication debt; and when the owner returns (empty disk) the
// anti-entropy sweep read-repairs it and pays the debt back to zero.
func TestReplicationKillOwnerDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process replication drill")
	}

	urls := make([]string, 3)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		urls[i] = "http://" + ln.Addr().String()
		ln.Close()
	}
	nodeA, nodeB, victim := urls[0], urls[1], urls[2]

	// Pick two seeds whose keys both live on [victim, B] — the same
	// replica-set assignment the nodes will compute (Successors ignores
	// health, so this holds before and after the kill).
	ring := cluster.NewRing(urls, 0)
	cfg := NormalizeConfig(replCfg())
	keyFor := func(seed int64) string {
		return request{Kind: KindLifetime, Config: cfg, Policy: "Hayat", Seed: seed, Chips: 1}.key()
	}
	var seeds []int64
	for s := int64(0); s < 100_000 && len(seeds) < 2; s++ {
		set := ring.Successors(keyFor(s), 2)
		if len(set) == 2 && set[0] == victim && set[1] == nodeB {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) < 2 {
		t.Fatal("no two seeds in 100k map to replica set [victim, B]")
	}
	seed1, seed2 := seeds[0], seeds[1]
	key1, key2 := keyFor(seed1), keyFor(seed2)

	dir := t.TempDir()
	dataDirs := []string{dir + "/node0", dir + "/node1", dir + "/node2"}
	cmds := make([]*exec.Cmd, 3)
	for i := range cmds {
		cmds[i] = replNode(t, urls, i, dataDirs[i])
	}
	t.Cleanup(func() {
		for _, cmd := range cmds {
			if cmd != nil && cmd.ProcessState == nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		}
	})

	// Every parent request goes through here: a 5xx anywhere fails the
	// drill.
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
	waitReady := func(u string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(u + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never became ready", u)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	metricsOf := func(u string) MetricsSnapshot {
		t.Helper()
		var met MetricsSnapshot
		_, data := do("GET", u+"/metrics", "")
		if err := json.Unmarshal(data, &met); err != nil {
			t.Fatal(err)
		}
		return met
	}
	storeStatus := func(u, key string) int {
		t.Helper()
		resp, _ := do("HEAD", u+"/v1/store/"+key, "")
		return resp.StatusCode
	}

	for _, u := range urls {
		waitReady(u)
	}

	// Phase 1: compute key1 on its owner; replication to B lands right
	// after the job turns terminal.
	submitBody := func(seed int64) string {
		return fmt.Sprintf(`{"config":{"Rows":4,"Cols":4,"Years":2,"WindowSeconds":1,"MixApps":2},"seed":%d,"policy":"hayat","wait":true}`, seed)
	}
	resp, data := do("POST", victim+"/v1/lifetime", submitBody(seed1))
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != JobDone {
		t.Fatalf("owner submit: HTTP %d %+v", resp.StatusCode, st)
	}
	if st.Key != key1 {
		t.Fatalf("request key mismatch: drill computed %s, server %s", key1, st.Key)
	}
	deadline := time.Now().Add(15 * time.Second)
	for storeStatus(nodeB, key1) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatalf("replica copy of %s never reached B", key1)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Phase 2: SIGKILL the owner. No drain, no warning.
	if err := cmds[2].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[2].Wait()
	for _, u := range []string{nodeA, nodeB} {
		deadline = time.Now().Add(15 * time.Second)
		for {
			if ps, ok := metricsOf(u).Cluster.Peers[victim]; ok && ps.State == "down" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never marked the owner down", u)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Phase 3: the same request against A must be answered from B's
	// replica — byte-identical to an uninterrupted single-node run, with
	// a verifying Merkle proof, and without running a single simulation
	// on the survivors.
	resp, data = do("POST", nodeA+"/v1/lifetime", submitBody(seed1))
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != JobDone {
		t.Fatalf("post-kill submit: HTTP %d %+v", resp.StatusCode, st)
	}
	_, result := do("GET", nodeA+"/v1/jobs/"+st.ID+"/result", "")
	want := referenceResult(t, replCfg(), seed1)
	if !bytes.Equal(result, want) {
		t.Fatal("post-kill result differs from an uninterrupted single-node run")
	}
	_, prData := do("GET", nodeA+"/v1/jobs/"+st.ID+"/proof", "")
	var pr ProofResponse
	if err := json.Unmarshal(prData, &pr); err != nil {
		t.Fatal(err)
	}
	if err := verifyProof(t, pr, result); err != nil {
		t.Fatalf("proof after kill: %v", err)
	}
	if runs := metricsOf(nodeA).SimRuns + metricsOf(nodeB).SimRuns; runs != 0 {
		t.Fatalf("survivors re-simulated the replicated result (%d sim runs)", runs)
	}

	// Phase 4: a result completed while the owner is dead degrades to
	// local-only writes plus recorded replication debt.
	resp, data = do("POST", nodeA+"/v1/lifetime", submitBody(seed2))
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != JobDone {
		t.Fatalf("under-replicated submit: HTTP %d %+v", resp.StatusCode, st)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		if metricsOf(nodeA).Store.ReplicationDebt+metricsOf(nodeB).Store.ReplicationDebt >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no replication debt recorded for the dead owner")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Phase 5: the owner returns with an EMPTY data directory. The
	// anti-entropy sweep must read-repair both keys onto it and pay the
	// debt down to zero.
	cmds[2] = replNode(t, urls, 2, dir+"/node2-reborn")
	waitReady(victim)
	deadline = time.Now().Add(60 * time.Second)
	for {
		repaired := storeStatus(victim, key1) == http.StatusOK && storeStatus(victim, key2) == http.StatusOK
		debt := metricsOf(nodeA).Store.ReplicationDebt + metricsOf(nodeB).Store.ReplicationDebt
		if repaired && debt == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner never fully read-repaired (key1=%d key2=%d debt=%d)",
				storeStatus(victim, key1), storeStatus(victim, key2), debt)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The repaired copy is byte-identical and its envelope verifies (a
	// decode failure here would mean a truncated or bit-flipped repair).
	_, env := do("GET", victim+"/v1/store/"+key1, "")
	envKey, payload, err := store.DecodeEnvelope(env)
	if err != nil {
		t.Fatalf("repaired envelope: %v", err)
	}
	if envKey != key1 || !bytes.Equal(payload, want) {
		t.Fatal("repaired owner copy is not byte-identical to the original result")
	}
	t.Logf("drill: owner killed, replica served %d bytes, debt repaid, owner read-repaired", len(want))
}
