package mapping

import (
	"testing"

	"github.com/kit-ces/hayat/internal/workload"
)

func threads(t *testing.T, n int) []*workload.Thread {
	t.Helper()
	p, ok := workload.ProfileByName("streamcluster")
	if !ok {
		t.Fatal("missing profile")
	}
	app, err := workload.NewApp(p, 0, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Threads) < n {
		t.Fatalf("profile admits only %d threads", len(app.Threads))
	}
	return app.Threads[:n]
}

func TestAssignAndLookup(t *testing.T) {
	ths := threads(t, 3)
	a := New(8)
	if err := a.Assign(ths[0], 2); err != nil {
		t.Fatal(err)
	}
	if got := a.ThreadOn(2); got != ths[0] {
		t.Fatal("ThreadOn mismatch")
	}
	if c, ok := a.CoreOf(ths[0]); !ok || c != 2 {
		t.Fatalf("CoreOf = %d,%v", c, ok)
	}
	if a.NumAssigned() != 1 {
		t.Fatalf("NumAssigned = %d", a.NumAssigned())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAssignErrors(t *testing.T) {
	ths := threads(t, 3)
	a := New(4)
	if err := a.Assign(nil, 0); err == nil {
		t.Error("nil thread accepted")
	}
	if err := a.Assign(ths[0], -1); err == nil {
		t.Error("negative core accepted")
	}
	if err := a.Assign(ths[0], 4); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := a.Assign(ths[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Assign(ths[1], 1); err == nil {
		t.Error("occupied core accepted")
	}
	if err := a.Assign(ths[0], 2); err == nil {
		t.Error("double assignment of thread accepted")
	}
}

func TestUnassign(t *testing.T) {
	ths := threads(t, 2)
	a := New(4)
	if err := a.Assign(ths[0], 0); err != nil {
		t.Fatal(err)
	}
	a.Unassign(ths[0])
	if a.ThreadOn(0) != nil || a.NumAssigned() != 0 {
		t.Fatal("unassign did not clear")
	}
	a.Unassign(ths[1]) // unmapped: no-op
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrate(t *testing.T) {
	ths := threads(t, 2)
	a := New(4)
	if err := a.Assign(ths[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Assign(ths[1], 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Migrate(ths[0], 3); err != nil {
		t.Fatal(err)
	}
	if a.ThreadOn(0) != nil || a.ThreadOn(3) != ths[0] {
		t.Fatal("migration did not move thread")
	}
	if err := a.Migrate(ths[0], 1); err == nil {
		t.Error("migration onto occupied core accepted")
	}
	if err := a.Migrate(ths[0], 3); err != nil {
		t.Errorf("self-migration should be a no-op, got %v", err)
	}
	if err := a.Migrate(ths[0], 99); err == nil {
		t.Error("out-of-range migration accepted")
	}
	unmapped := threads(t, 3)[2]
	if err := a.Migrate(unmapped, 2); err == nil {
		t.Error("migrating unmapped thread accepted")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDCMReflectsAssignment(t *testing.T) {
	ths := threads(t, 2)
	a := New(4)
	_ = a.Assign(ths[0], 0)
	_ = a.Assign(ths[1], 3)
	// The Dark Core Map is exactly the set of cores with a thread.
	want := []bool{true, false, false, true}
	for i := range want {
		if on := a.ThreadOn(i) != nil; on != want[i] {
			t.Fatalf("core %d powered = %v, want %v", i, on, want[i])
		}
	}
	if a.NumAssigned() != 2 {
		t.Fatalf("NumAssigned = %d", a.NumAssigned())
	}
}

func TestCloneIndependence(t *testing.T) {
	ths := threads(t, 2)
	a := New(4)
	_ = a.Assign(ths[0], 0)
	c := a.Clone()
	if err := c.Assign(ths[1], 1); err != nil {
		t.Fatal(err)
	}
	if a.ThreadOn(1) != nil {
		t.Fatal("clone shares state with original")
	}
	_ = c.Migrate(ths[0], 2)
	if a.ThreadOn(0) == nil {
		t.Fatal("clone migration affected original")
	}
}

func TestClear(t *testing.T) {
	ths := threads(t, 2)
	a := New(4)
	_ = a.Assign(ths[0], 0)
	_ = a.Assign(ths[1], 1)
	a.Clear()
	if a.NumAssigned() != 0 || a.ThreadOn(0) != nil || a.ThreadOn(1) != nil {
		t.Fatal("Clear left state behind")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}
