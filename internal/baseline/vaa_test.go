package baseline

import (
	"testing"

	"github.com/kit-ces/hayat/internal/testutil"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{SeedRadius: 0}).Validate(); err == nil {
		t.Error("SeedRadius 0 accepted")
	}
	if _, err := New(Config{SeedRadius: 0}); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestMapBasicInvariants(t *testing.T) {
	fx := testutil.NewFixture(t, 1)
	ctx := fx.Context(0.50)
	threads := testutil.Threads(t, 3, ctx.MaxOnCores, 4)
	v, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Map(ctx, threads)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Assignment.NumAssigned()+len(res.Unmapped) != len(threads) {
		t.Fatal("thread accounting broken")
	}
	if res.Assignment.NumAssigned() > ctx.MaxOnCores {
		t.Fatalf("budget exceeded: %d > %d", res.Assignment.NumAssigned(), ctx.MaxOnCores)
	}
	for i := 0; i < res.Assignment.N(); i++ {
		if th := res.Assignment.ThreadOn(i); th != nil && ctx.FMax[i] < th.MinFreq() {
			t.Fatalf("core %d too slow for its thread", i)
		}
	}
	if res.Assignment.NumAssigned() == 0 {
		t.Fatal("nothing mapped")
	}
}

func TestMapIsContiguous(t *testing.T) {
	// VAA's defining behaviour: the powered cores form a tight cluster —
	// the average Manhattan nearest-neighbour distance must be ≈1.
	fx := testutil.NewFixture(t, 2)
	ctx := fx.Context(0.50)
	threads := testutil.Threads(t, 9, ctx.MaxOnCores, 4)
	v, _ := New(DefaultConfig())
	res, err := v.Map(ctx, threads)
	if err != nil {
		t.Fatal(err)
	}
	var on []int
	for i := 0; i < res.Assignment.N(); i++ {
		if res.Assignment.ThreadOn(i) != nil {
			on = append(on, i)
		}
	}
	if len(on) < 8 {
		t.Skipf("only %d cores mapped", len(on))
	}
	sum := 0.0
	for _, i := range on {
		min := 1 << 30
		for _, j := range on {
			if i == j {
				continue
			}
			if d := fx.FP.ManhattanDistance(i, j); d < min {
				min = d
			}
		}
		sum += float64(min)
	}
	if avg := sum / float64(len(on)); avg > 1.2 {
		t.Fatalf("average NN distance %.3f — VAA should cluster tightly", avg)
	}
}

func TestMapDeterministic(t *testing.T) {
	fx := testutil.NewFixture(t, 3)
	v, _ := New(DefaultConfig())
	run := func() []int {
		ctx := fx.Context(0.25)
		threads := testutil.Threads(t, 7, ctx.MaxOnCores, 4)
		res, err := v.Map(ctx, threads)
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for i := 0; i < res.Assignment.N(); i++ {
			if res.Assignment.ThreadOn(i) != nil {
				out = append(out, i)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic mapping")
		}
	}
}

func TestMapAgingAware(t *testing.T) {
	// The VAA extension: cores whose *aged* fmax is below a thread's
	// requirement must not be used, even if initially fast.
	fx := testutil.NewFixture(t, 4)
	ctx := fx.Context(0.50)
	threads := testutil.Threads(t, 3, ctx.MaxOnCores, 4)
	// Age every core to 50 % health: nothing can run ≥2 GHz threads
	// unless its aged fmax still allows it.
	for i := range ctx.FMax {
		ctx.FMax[i] = fx.Chip.FMax0[i] * 0.5
	}
	v, _ := New(DefaultConfig())
	res, err := v.Map(ctx, threads)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Assignment.N(); i++ {
		if th := res.Assignment.ThreadOn(i); th != nil && ctx.FMax[i] < th.MinFreq() {
			t.Fatalf("aged-out core %d used", i)
		}
	}
}

func TestMapUnmappableReported(t *testing.T) {
	fx := testutil.NewFixture(t, 5)
	ctx := fx.Context(0.50)
	threads := testutil.Threads(t, 3, ctx.MaxOnCores, 4)
	for i := range ctx.FMax {
		ctx.FMax[i] = 1e8
	}
	v, _ := New(DefaultConfig())
	res, err := v.Map(ctx, threads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unmapped) != len(threads) || res.Assignment.NumAssigned() != 0 {
		t.Fatal("slow cores should map nothing")
	}
}

func TestMapInvalidContextRejected(t *testing.T) {
	fx := testutil.NewFixture(t, 1)
	ctx := fx.Context(0.50)
	ctx.MaxOnCores = 0
	v, _ := New(DefaultConfig())
	if _, err := v.Map(ctx, nil); err == nil {
		t.Fatal("invalid context accepted")
	}
}
