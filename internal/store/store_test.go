package store

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/kit-ces/hayat/internal/merkle"
	"github.com/kit-ces/hayat/internal/persist"
)

func testKey(n int) string { return fmt.Sprintf("%064x", n) }

func leafHex(data []byte) string {
	h := merkle.LeafHash(data)
	return hex.EncodeToString(h[:])
}

// fakeTransport is an in-memory peer fleet for Replicated tests.
type fakeTransport struct {
	mu     sync.Mutex
	up     map[string]bool
	data   map[string]map[string][]byte // peer → key → payload
	putErr map[string]error             // peer → forced StorePut error
	getErr map[string]error             // peer → forced StoreGet error
	puts   int
	gets   int
}

func newFakeTransport(peers ...string) *fakeTransport {
	t := &fakeTransport{
		up:     make(map[string]bool),
		data:   make(map[string]map[string][]byte),
		putErr: make(map[string]error),
		getErr: make(map[string]error),
	}
	for _, p := range peers {
		t.up[p] = true
		t.data[p] = make(map[string][]byte)
	}
	return t
}

func (t *fakeTransport) StoreGet(ctx context.Context, peer, key string) ([]byte, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gets++
	if err := t.getErr[peer]; err != nil {
		return nil, false, err
	}
	data, ok := t.data[peer][key]
	return data, ok, nil
}

func (t *fakeTransport) StorePut(ctx context.Context, peer, key string, data []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.puts++
	if err := t.putErr[peer]; err != nil {
		return err
	}
	if t.data[peer] == nil {
		t.data[peer] = make(map[string][]byte)
	}
	t.data[peer][key] = data
	return nil
}

func (t *fakeTransport) StoreStat(ctx context.Context, peer, key string) (string, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, ok := t.data[peer][key]
	if !ok {
		return "", false, nil
	}
	return leafHex(data), true, nil
}

func (t *fakeTransport) PeerUp(peer string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.up[peer]
}

func (t *fakeTransport) setUp(peer string, v bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.up[peer] = v
}

func (t *fakeTransport) peerData(peer, key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.data[peer][key]
	return d, ok
}

// counters wires Obs to plain ints for assertions.
type counters struct {
	mu                                           sync.Mutex
	wins, losses, repairs, puts, putErrs, sweeps int
}

func (c *counters) obs() Obs {
	inc := func(p *int) func() {
		return func() { c.mu.Lock(); *p++; c.mu.Unlock() }
	}
	return Obs{
		HedgedWin:     inc(&c.wins),
		HedgedLoss:    inc(&c.losses),
		ReadRepair:    inc(&c.repairs),
		ReplicaPut:    inc(&c.puts),
		ReplicaPutErr: inc(&c.putErrs),
		Sweep:         func(time.Duration) { c.mu.Lock(); c.sweeps++; c.mu.Unlock() },
	}
}

func (c *counters) snap() (wins, losses, repairs, puts, putErrs, sweeps int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wins, c.losses, c.repairs, c.puts, c.putErrs, c.sweeps
}

// ring2 is a fixed two-replica assignment: owner "self", replica peer.
func ring2(self string, peers ...string) func(string, int) []string {
	return func(key string, n int) []string {
		set := append([]string{self}, peers...)
		if n < len(set) {
			set = set[:n]
		}
		return set
	}
}

func TestValidKey(t *testing.T) {
	for key, want := range map[string]bool{
		testKey(1):       true,
		"abc123":         true,
		"":               false,
		"ABC":            false, // uppercase
		"xyz":            false, // not hex
		"../etc/passwd":  false,
		testKey(1) + "g": false,
	} {
		if got := ValidKey(key); got != want {
			t.Errorf("ValidKey(%q) = %v, want %v", key, got, want)
		}
	}
	if ValidKey(string(make([]byte, MaxKeyLen+1))) {
		t.Error("overlong key accepted")
	}
}

func TestMemoryTier(t *testing.T) {
	m := newMemory(0)
	if _, ok := m.get(testKey(1)); ok {
		t.Fatal("empty tier reported a hit")
	}
	m.put(testKey(1), []byte("a"))
	if data, ok := m.get(testKey(1)); !ok || string(data) != "a" {
		t.Fatalf("get = %q, %v", data, ok)
	}
	m.put(testKey(3), []byte("c"))
	if keys := m.Keys(); len(keys) != 2 || keys[0] != testKey(1) || keys[1] != testKey(3) {
		t.Fatalf("Keys = %v", keys)
	}
	m.drop(testKey(1))
	if _, ok := m.get(testKey(1)); ok {
		t.Fatal("dropped key still present")
	}
}

func TestDiskTierFramedAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	quarantines := 0
	d.OnQuarantine = func() { quarantines++ }

	// Framed round-trip.
	payload := []byte(`{"x":1}`)
	if err := d.put(testKey(1), payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.get(testKey(1)); !ok || string(got) != string(payload) {
		t.Fatalf("framed get = %q, %v", got, ok)
	}

	// Unframed content, even valid JSON, is not an entry: miss +
	// quarantine.
	if err := os.WriteFile(filepath.Join(dir, testKey(2)+".json"), []byte(`{"old":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.get(testKey(2)); ok {
		t.Fatalf("unframed entry served: %q", got)
	}
	if quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", quarantines)
	}
	if _, err := os.Stat(filepath.Join(dir, testKey(2)+".json.corrupt")); err != nil {
		t.Fatalf("no .corrupt file: %v", err)
	}

	// Corrupt frame: miss + quarantine, never an error.
	raw := persist.EncodeFrame([]byte(`{"y":2}`))
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, testKey(3)+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.get(testKey(3)); ok {
		t.Fatal("corrupt entry served")
	}
	if quarantines != 2 {
		t.Fatalf("quarantines = %d, want 2", quarantines)
	}
	if _, err := os.Stat(filepath.Join(dir, testKey(3)+".json.corrupt")); err != nil {
		t.Fatalf("no .corrupt file: %v", err)
	}

	// Verify rejection quarantines too.
	d.Verify = func(key string, data []byte) error { return errors.New("diverges") }
	if _, ok := d.get(testKey(1)); ok {
		t.Fatal("verify-rejected entry served")
	}
	if quarantines != 3 {
		t.Fatalf("quarantines = %d, want 3", quarantines)
	}
	d.Verify = nil

	// Nil disk (no data dir) is safe everywhere.
	var nd *Disk
	if _, ok := nd.get(testKey(1)); ok {
		t.Fatal("nil disk hit")
	}
	if err := nd.put(testKey(1), payload); err != nil {
		t.Fatal(err)
	}
	if keys := nd.Keys(); keys != nil {
		t.Fatalf("nil disk keys = %v", keys)
	}
}

func TestDiskValidateAll(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.put(testKey(1), []byte(`{"ok":1}`)); err != nil {
		t.Fatal(err)
	}
	raw := persist.EncodeFrame([]byte(`{"ok":2}`))
	raw[len(raw)-2] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, testKey(2)+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	checked, quarantined, err := d.ValidateAll()
	if err != nil {
		t.Fatal(err)
	}
	if checked != 2 || quarantined != 1 {
		t.Fatalf("ValidateAll = (%d, %d), want (2, 1)", checked, quarantined)
	}
	// The valid entry still reads; the corrupt one is gone.
	if _, ok := d.get(testKey(1)); !ok {
		t.Fatal("valid entry lost")
	}
	if _, ok := d.get(testKey(2)); ok {
		t.Fatal("quarantined entry served")
	}
}

func TestBoundedMemoryEvictsLeastRecentlyUsed(t *testing.T) {
	m := newMemory(2)
	m.put(testKey(1), []byte("a"))
	m.put(testKey(2), []byte("b"))
	m.get(testKey(1)) // key 2 is now the least recently used
	m.put(testKey(3), []byte("c"))
	if _, ok := m.get(testKey(2)); ok {
		t.Fatal("least recently used entry survived")
	}
	for _, k := range []int{1, 3} {
		if _, ok := m.get(testKey(k)); !ok {
			t.Fatalf("key %d evicted", k)
		}
	}
	m.put(testKey(3), []byte("c")) // rewriting a key never evicts
	if n := m.len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	m.drop(testKey(1))
	if keys := m.Keys(); len(keys) != 1 || keys[0] != testKey(3) {
		t.Fatalf("Keys after drop = %v", keys)
	}
}

func TestBoundedMemoryConcurrentUse(t *testing.T) {
	m := newMemory(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := testKey((g*7 + i) % 10)
				m.put(k, []byte(k))
				if data, ok := m.get(k); ok && string(data) != k {
					t.Errorf("get(%s) = %q", k, data)
				}
				if i%5 == 0 {
					m.drop(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := m.len(); n > 4 {
		t.Fatalf("bounded tier holds %d entries, limit 4", n)
	}
}

func TestReplicatedMemoryBoundOnlyWithDisk(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	withDisk, memOnly := NewReplicated(nil, d), NewReplicated(nil, nil)
	n := MemoryCapacity + 5
	for i := 0; i < n; i++ {
		for _, r := range []*Replicated{withDisk, memOnly} {
			if err := r.PutLocal(testKey(i), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := withDisk.MemoryLen(); got != MemoryCapacity {
		t.Fatalf("disk-backed memory tier holds %d, want %d", got, MemoryCapacity)
	}
	if got := memOnly.MemoryLen(); got != n {
		t.Fatalf("memory-only tier holds %d, want all %d", got, n)
	}
	for i := 0; i < n; i++ {
		want := fmt.Sprintf(`{"i":%d}`, i)
		for _, r := range []*Replicated{withDisk, memOnly} {
			if data, ok := r.GetLocal(testKey(i)); !ok || string(data) != want {
				t.Fatalf("GetLocal(%d) = %q, %v", i, data, ok)
			}
		}
	}
}

func TestReplicatedLocalTiers(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplicated(nil, d)
	if err := r.PutLocal(testKey(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same dir: disk hit promotes into memory.
	d2, _ := OpenDisk(dir)
	r2 := NewReplicated(nil, d2)
	if data, ok := r2.GetLocal(testKey(1)); !ok || string(data) != "v" {
		t.Fatalf("GetLocal = %q, %v", data, ok)
	}
	if _, ok := r2.mem.get(testKey(1)); !ok {
		t.Fatal("disk hit was not promoted to memory")
	}
	if keys := r2.Keys(); len(keys) != 1 || keys[0] != testKey(1) {
		t.Fatalf("Keys = %v", keys)
	}
	// Quarantine drops both tiers.
	r2.Quarantine(testKey(1))
	if _, ok := r2.GetLocal(testKey(1)); ok {
		t.Fatal("quarantined key still readable")
	}
}

func TestReplicateAndDebt(t *testing.T) {
	const self, peerB, peerC = "http://a", "http://b", "http://c"
	ft := newFakeTransport(peerB, peerC)
	var c counters
	r := NewReplicated(nil, nil)
	r.Configure(Options{
		Self:       self,
		Copies:     3,
		ReplicaSet: ring2(self, peerB, peerC),
		Transport:  ft,
		Obs:        c.obs(),
	})
	ctx := context.Background()
	data := []byte(`{"r":1}`)

	// Healthy fleet: both replicas get a copy, no debt.
	r.Replicate(ctx, testKey(1), data)
	if got, ok := ft.peerData(peerB, testKey(1)); !ok || string(got) != string(data) {
		t.Fatalf("peer B copy = %q, %v", got, ok)
	}
	if _, ok := ft.peerData(peerC, testKey(1)); !ok {
		t.Fatal("peer C missing its copy")
	}
	if r.Debt() != 0 {
		t.Fatalf("debt = %d, want 0", r.Debt())
	}
	_, _, _, puts, _, _ := c.snap()
	if puts != 2 {
		t.Fatalf("replica puts = %d, want 2", puts)
	}

	// One peer down: local-only write plus recorded debt, no attempt.
	ft.setUp(peerC, false)
	before := ft.puts
	r.Replicate(ctx, testKey(2), data)
	if r.Debt() != 1 {
		t.Fatalf("debt = %d, want 1", r.Debt())
	}
	if _, ok := ft.peerData(peerC, testKey(2)); ok {
		t.Fatal("down peer received a push")
	}
	if ft.puts != before+1 { // only peer B was attempted
		t.Fatalf("puts = %d, want %d", ft.puts, before+1)
	}

	// A failing push (peer up, request errors) is debt too.
	ft.setUp(peerC, true)
	ft.putErr[peerC] = errors.New("boom")
	r.Replicate(ctx, testKey(3), data)
	if r.Debt() != 2 {
		t.Fatalf("debt = %d, want 2", r.Debt())
	}
	_, _, _, _, putErrs, _ := c.snap()
	if putErrs != 1 {
		t.Fatalf("put errors = %d, want 1", putErrs)
	}

	// The sweep pays the debt down once the peer behaves again.
	ft.putErr[peerC] = nil
	r.PutLocal(testKey(2), data)
	r.PutLocal(testKey(3), data)
	r.Sweep(ctx)
	if r.Debt() != 0 {
		t.Fatalf("debt after sweep = %d, want 0", r.Debt())
	}
	for _, key := range []string{testKey(2), testKey(3)} {
		if got, ok := ft.peerData(peerC, key); !ok || string(got) != string(data) {
			t.Fatalf("peer C %s after sweep = %q, %v", key, got, ok)
		}
	}
	_, _, _, _, _, sweeps := c.snap()
	if sweeps != 1 {
		t.Fatalf("sweeps = %d, want 1", sweeps)
	}
}

func TestHedgedFetch(t *testing.T) {
	const self, peerB, peerC = "http://a", "http://b", "http://c"
	ft := newFakeTransport(peerB, peerC)
	var c counters
	r := NewReplicated(nil, nil)
	r.Configure(Options{
		Self:       self,
		Copies:     3,
		ReplicaSet: ring2(self, peerB, peerC),
		Transport:  ft,
		Obs:        c.obs(),
	})
	ctx := context.Background()
	data := []byte(`{"h":1}`)

	// Miss everywhere.
	if _, ok := r.FetchReplica(ctx, testKey(1)); ok {
		t.Fatal("fetch hit on empty fleet")
	}

	// First replica errors, second holds the copy: the hedge wins and
	// read-repairs the local tiers.
	ft.getErr[peerB] = errors.New("boom")
	ft.data[peerC][testKey(1)] = data
	got, ok := r.FetchReplica(ctx, testKey(1))
	if !ok || string(got) != string(data) {
		t.Fatalf("FetchReplica = %q, %v", got, ok)
	}
	wins, losses, repairs, _, _, _ := c.snap()
	if wins != 1 || losses < 1 {
		t.Fatalf("wins=%d losses=%d, want 1 and ≥1", wins, losses)
	}
	if repairs != 1 {
		t.Fatalf("repairs = %d, want 1", repairs)
	}
	if local, ok := r.GetLocal(testKey(1)); !ok || string(local) != string(data) {
		t.Fatal("fetched copy did not read-repair the local tiers")
	}

	// A copy that fails Verify is never served.
	bad := []byte(`{"h":"tampered"}`)
	ft.data[peerB][testKey(2)] = bad
	ft.data[peerC][testKey(2)] = bad
	ft.getErr[peerB] = nil
	r.o.Verify = func(key string, data []byte) error { return errors.New("diverges from audit") }
	if _, ok := r.FetchReplica(ctx, testKey(2)); ok {
		t.Fatal("divergent replica bytes served")
	}
}

func TestSweepQuarantinesDivergentLocal(t *testing.T) {
	const self, peerB = "http://a", "http://b"
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	ft := newFakeTransport(peerB)
	good := []byte(`{"v":"good"}`)
	ft.data[peerB][testKey(1)] = good

	r := NewReplicated(nil, d)
	r.Configure(Options{
		Self:       self,
		Copies:     2,
		ReplicaSet: ring2(self, peerB),
		Transport:  ft,
		// The audit says only `good` verifies.
		Verify: func(key string, data []byte) error {
			if string(data) != string(good) {
				return errors.New("diverges from audit")
			}
			return nil
		},
	})
	// Seed a divergent local copy directly into memory (disk.Verify would
	// refuse to serve it, which is the point of pushing Verify down).
	r.mem.put(testKey(1), []byte(`{"v":"rotten"}`))

	r.Sweep(context.Background())

	data, ok := r.GetLocal(testKey(1))
	if !ok || string(data) != string(good) {
		t.Fatalf("after sweep, local = %q, %v; want repaired %q", data, ok, good)
	}
}

func TestStartReadyClose(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.put(testKey(1), []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	r := NewReplicated(nil, d)
	if r.Ready() {
		t.Fatal("store with a durable tier ready before warm-up")
	}
	r.Start(context.Background(), time.Hour)
	deadline := time.Now().Add(5 * time.Second)
	for !r.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("warm-up never finished")
		}
		time.Sleep(time.Millisecond)
	}
	r.Close()

	// No durable tier: ready immediately, Close without Start is safe.
	r2 := NewReplicated(nil, nil)
	if !r2.Ready() {
		t.Fatal("tierless store not ready")
	}
	r2.Close()
}
