package hayat

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// memChipStore is an in-memory ChipResultStore for tests.
type memChipStore struct {
	mu    sync.Mutex
	blobs map[int64][]byte
	loads int
	saves int
}

func newMemChipStore() *memChipStore { return &memChipStore{blobs: make(map[int64][]byte)} }

func (m *memChipStore) Load(seed int64) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.blobs[seed]
	if ok {
		m.loads++
	}
	return data, ok
}

func (m *memChipStore) Save(seed int64, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blobs[seed] = append([]byte(nil), data...)
	m.saves++
	return nil
}

// A population run resumed from persisted chip results must skip the
// finished chips and aggregate to byte-identical output.
func TestRunPopulationResumable(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	const chips = 4
	ctx := context.Background()

	ref, err := sys.RunPopulationContext(ctx, 100, chips, PolicyHayat)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ref.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	// First resumable run populates the store.
	store := newMemChipStore()
	pr, err := sys.RunPopulationResumable(ctx, 100, chips, PolicyHayat, nil, store)
	if err != nil {
		t.Fatal(err)
	}
	if store.saves != chips {
		t.Fatalf("saved %d chips, want %d", store.saves, chips)
	}
	var got bytes.Buffer
	if err := pr.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("store-backed run differs from plain run")
	}

	// Second run restores every chip — and still aggregates identically.
	// Drop one blob to model a crash between chip saves: only that chip
	// is re-simulated.
	store.mu.Lock()
	delete(store.blobs, 102)
	store.mu.Unlock()
	// Progress may be called concurrently from worker goroutines, and
	// the calls may land out of order: keep the highest count seen.
	var (
		doneMu sync.Mutex
		done   int
	)
	pr2, err := sys.RunPopulationResumable(ctx, 100, chips, PolicyHayat,
		func(d, total int) {
			doneMu.Lock()
			defer doneMu.Unlock()
			done = max(done, d)
		}, store)
	if err != nil {
		t.Fatal(err)
	}
	if store.loads != chips-1 {
		t.Fatalf("restored %d chips, want %d", store.loads, chips-1)
	}
	if done != chips {
		t.Fatalf("progress reported %d/%d", done, chips)
	}
	var got2 bytes.Buffer
	if err := pr2.WriteJSON(&got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2.Bytes(), want.Bytes()) {
		t.Fatal("resumed run differs from uninterrupted run")
	}
}

// Stale store blobs — wrong policy, wrong seed, or garbage — must be
// rejected and recomputed, never folded into the population.
func TestRunPopulationResumableRejectsStaleBlobs(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Fill a store under VAA, then run Hayat against it: every blob has
	// the wrong policy and must be ignored.
	store := newMemChipStore()
	if _, err := sys.RunPopulationResumable(ctx, 200, 2, PolicyVAA, nil, store); err != nil {
		t.Fatal(err)
	}
	store.blobs[201] = []byte("not json at all")

	ref, err := sys.RunPopulationContext(ctx, 200, 2, PolicyHayat)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := sys.RunPopulationResumable(ctx, 200, 2, PolicyHayat, nil, store)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := ref.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := pr.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("run against a stale store diverged")
	}
}
