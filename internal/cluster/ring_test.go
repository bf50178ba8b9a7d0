package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

// Disabling a peer must move ONLY the keys it owned; every other key's
// owner is stable. Re-enabling restores the exact original mapping.
func TestRingRebalanceMovesOnlyEvictedKeys(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c"}
	r := NewRing(peers)
	keys := testKeys(500)

	before := make(map[string]string, len(keys))
	for _, k := range keys {
		p, ok := r.Owner(k)
		if !ok {
			t.Fatalf("no owner for %s", k)
		}
		before[k] = p
	}

	r.SetEnabled("http://b", false)
	moved := 0
	for _, k := range keys {
		p, ok := r.Owner(k)
		if !ok {
			t.Fatalf("no owner for %s after eviction", k)
		}
		if p == "http://b" {
			t.Fatalf("evicted peer still owns %s", k)
		}
		if before[k] == "http://b" {
			moved++
		} else if p != before[k] {
			t.Fatalf("key %s moved %s → %s though its owner never left", k, before[k], p)
		}
	}
	if moved == 0 {
		t.Fatal("evicted peer owned zero of 500 keys — ring is not spreading")
	}

	r.SetEnabled("http://b", true)
	for _, k := range keys {
		if p, _ := r.Owner(k); p != before[k] {
			t.Fatalf("after recovery key %s owned by %s, want %s", k, p, before[k])
		}
	}
}

func TestRingSpread(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c", "http://d"}
	r := NewRing(peers)
	counts := map[string]int{}
	for _, k := range testKeys(4000) {
		p, _ := r.Owner(k)
		counts[p]++
	}
	for _, p := range peers {
		if counts[p] < 400 {
			t.Fatalf("peer %s owns only %d/4000 keys: %v", p, counts[p], counts)
		}
	}
}

func TestRingAllDown(t *testing.T) {
	r := NewRing([]string{"http://a", "http://b"})
	r.SetEnabled("http://a", false)
	r.SetEnabled("http://b", false)
	if _, ok := r.Owner("k"); ok {
		t.Fatal("fully-disabled ring still returned an owner")
	}
	if _, ok := r.Assign(testKeys(10)); ok {
		t.Fatal("fully-disabled ring still assigned keys")
	}
}

// Bounded-load assignment: every key assigned exactly once, every peer's
// share is under the cap, and a disabled peer gets nothing.
func TestRingAssignBoundedLoad(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c"}
	r := NewRing(peers)
	keys := testKeys(300)

	asg, ok := r.Assign(keys)
	if !ok {
		t.Fatal("assign failed")
	}
	seen := make(map[int]bool)
	for _, idxs := range asg {
		for _, i := range idxs {
			if seen[i] {
				t.Fatalf("key %d assigned twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(keys) {
		t.Fatalf("%d/%d keys assigned", len(seen), len(keys))
	}
	cap_ := int(float64(len(keys))*loadFactor/3) + 1
	for p, idxs := range asg {
		if len(idxs) > cap_ {
			t.Fatalf("peer %s got %d keys, cap %d", p, len(idxs), cap_)
		}
	}

	r.SetEnabled("http://c", false)
	asg, _ = r.Assign(keys)
	if len(asg["http://c"]) != 0 {
		t.Fatal("disabled peer still got chips")
	}
	n := 0
	for _, idxs := range asg {
		n += len(idxs)
	}
	if n != len(keys) {
		t.Fatalf("%d/%d keys assigned after eviction", n, len(keys))
	}
}

func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"http://a", "http://b", "http://c"})
	b := NewRing([]string{"http://c", "http://a", "http://b"}) // order-independent
	for _, k := range testKeys(100) {
		pa, _ := a.Owner(k)
		pb, _ := b.Owner(k)
		if pa != pb {
			t.Fatalf("rings disagree on %s: %s vs %s", k, pa, pb)
		}
	}
}
