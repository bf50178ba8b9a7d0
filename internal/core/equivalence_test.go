package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/dvfs"
	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/testutil"
	"github.com/kit-ces/hayat/internal/variation"
	"github.com/kit-ces/hayat/internal/workload"
)

// equivCase is one randomised decision context for the equivalence test.
type equivCase struct {
	ctx      *policy.Context
	cfg      Config
	threads  []*workload.Thread
	arrivals []*workload.Thread // placed by MapIncremental after threads
	desc     string
}

// randomCase draws a decision context: random aging history, sensor
// noise, previous DCM, duty mode, DVFS ladder, horizon, dark fraction and
// Hayat constants. With flatFMax every core reports one frequency, which
// with β = 0 makes exact weight ties common, so the tie path runs in full
// context.
func randomCase(t *testing.T, fx *testutil.Fixture, rng *rand.Rand) equivCase {
	t.Helper()
	dark := []float64{0.25, 0.5, 0.75}[rng.Intn(3)]
	ctx := fx.Context(dark)
	n := ctx.N()
	cfg := DefaultConfig()
	var desc string
	if rng.Intn(2) == 0 {
		cfg.AffectedDeltaK = 0
		desc += " fullPredict"
	}
	if rng.Intn(3) == 0 {
		cfg.BetaEarly, cfg.BetaLate = 0, 0
		desc += " beta0"
	}
	years := rng.Float64() * 8
	for i := 0; i < n; i++ {
		if years > 0 {
			ctx.Health[i].Advance(fx.Table, 310+90*rng.Float64(), rng.Float64(), years*rng.Float64())
		}
		ctx.FMax[i] = fx.Chip.FMax0[i] * ctx.Health[i].Factor
		ctx.Temps[i] = ctx.Predictor.Ambient() + 50*rng.Float64()
	}
	if rng.Intn(2) == 0 {
		sigma := 0.02 * rng.Float64()
		for i := range ctx.FMax {
			ctx.FMax[i] *= 1 + sigma*rng.NormFloat64()
		}
		desc += " noise"
	}
	if rng.Intn(4) == 0 {
		f := 2.5e9 + 1e9*rng.Float64()
		for i := range ctx.FMax {
			ctx.FMax[i] = f
		}
		desc += " flatFMax"
	}
	if rng.Intn(2) == 0 {
		ctx.PrevOn = make([]bool, n)
		for i := range ctx.PrevOn {
			ctx.PrevOn[i] = rng.Intn(3) == 0
		}
		desc += " prevOn"
	}
	if rng.Intn(3) == 0 {
		ladder, err := dvfs.Uniform(1.0e9, 4.0e9, 7)
		if err != nil {
			t.Fatal(err)
		}
		ctx.FreqLevels = ladder
		desc += " ladder"
	}
	if rng.Intn(3) == 0 {
		cfg.SpreadCap = rng.Intn(10)
		desc += fmt.Sprintf(" cap%d", cfg.SpreadCap)
	}
	if rng.Intn(5) == 0 {
		// Every core unaged, equally fast and equally healthy next epoch,
		// with no spread term: every admitted candidate ties on weight and
		// on chip-average next health, so the lowest peak temperature
		// decides.
		flat := *fx.Table
		flat.Factor = make([]float64, len(fx.Table.Factor))
		for i := range flat.Factor {
			flat.Factor[i] = 1
		}
		ctx.AgingTable = &flat
		for i := range ctx.Health {
			ctx.Health[i] = aging.NewState()
			ctx.FMax[i] = 3e9
		}
		cfg.SpreadWeight = 0
		desc += " flatTable"
	}
	if rng.Intn(3) == 0 {
		// A T_safe some candidates exceed, so admission is contested.
		ctx.TSafe = ctx.Predictor.Ambient() + 15 + 30*rng.Float64()
		desc += fmt.Sprintf(" tSafe%.1f", ctx.TSafe)
	}
	ctx.DutyMode = policy.DutyMode(rng.Intn(3))
	ctx.HorizonYears = []float64{0.25, 1}[rng.Intn(2)]
	all := testutil.Threads(t, rng.Int63(), ctx.MaxOnCores, 1+rng.Intn(4))
	split := len(all) - rng.Intn(len(all)/2+1)
	return equivCase{
		ctx: ctx, cfg: cfg, threads: all[:split], arrivals: all[split:],
		desc: fmt.Sprintf("dark=%v duty=%d horizon=%v years=%.2f%s", dark, ctx.DutyMode, ctx.HorizonYears, years, desc),
	}
}

// sameResult reports how two policy results differ, or "" if they hold
// the same thread on every core and the same unmapped threads in order.
func sameResult(got, want policy.Result) string {
	if got.Assignment.N() != want.Assignment.N() {
		return fmt.Sprintf("assignment sizes %d vs %d", got.Assignment.N(), want.Assignment.N())
	}
	for i := 0; i < got.Assignment.N(); i++ {
		if got.Assignment.ThreadOn(i) != want.Assignment.ThreadOn(i) {
			return fmt.Sprintf("core %d holds %v, reference %v", i, got.Assignment.ThreadOn(i), want.Assignment.ThreadOn(i))
		}
	}
	if len(got.Unmapped) != len(want.Unmapped) {
		return fmt.Sprintf("%d unmapped threads, reference %d", len(got.Unmapped), len(want.Unmapped))
	}
	for i := range got.Unmapped {
		if got.Unmapped[i] != want.Unmapped[i] {
			return fmt.Sprintf("unmapped[%d] differs", i)
		}
	}
	return ""
}

// TestPlaceMatchesReference checks that the pruned candidate loop picks
// exactly what the eager reference (referencePlace) picks, for full
// remaps and incremental placements. The incremental placements start
// from the full remap's assignment, so they seed place's spread
// distances from powered cores; the test fails if none did.
func TestPlaceMatchesReference(t *testing.T) {
	cases := 40
	if testing.Short() {
		cases = 10
	}
	seededInc := 0
	for _, seed := range []int64{11, 12} {
		fx := testutil.NewFixture(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < cases; k++ {
			c := randomCase(t, fx, rng)
			h, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Result.Unmapped aliases the context's scratch, so each
			// reference call gets its own context copy.
			refCtx, refIncCtx := *c.ctx, *c.ctx
			want, err := h.referencePlace(&refCtx, nil, c.threads)
			if err != nil {
				t.Fatal(err)
			}
			wantInc, err := h.referencePlace(&refIncCtx, want.Assignment, c.arrivals)
			if err != nil {
				t.Fatal(err)
			}
			ctx := *c.ctx
			got, err := h.Map(&ctx, c.threads)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameResult(got, want); d != "" {
				t.Fatalf("chip %d case %d (%s) Map: %s", seed, k, c.desc, d)
			}
			if want.Assignment.NumAssigned() > 0 && len(c.arrivals) > 0 {
				seededInc++
			}
			gotInc, err := h.MapIncremental(&ctx, want.Assignment, c.arrivals)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameResult(gotInc, wantInc); d != "" {
				t.Fatalf("chip %d case %d (%s) MapIncremental: %s", seed, k, c.desc, d)
			}
		}
	}
	if seededInc == 0 {
		t.Fatal("no MapIncremental call started from a non-empty assignment")
	}
	t.Logf("%d MapIncremental calls started from a non-empty assignment", seededInc)
}

// refUpdateNear is updateNear as it was before it visited only the
// cores closer than SpreadCap, verbatim but for its name.
func (h *Hayat) refUpdateNear(ctx *policy.Context, near []int, i int) {
	for c := range near {
		if d := ctx.Chip.Floorplan.ManhattanDistance(c, i); d < near[c] {
			near[c] = d
		}
	}
}

// TestUpdateNearMatchesReference powers random cores one by one on grids
// from 1×1 to 9×12 in both orientations, with SpreadCap from 0 past the
// grid's diameter, and requires every near[c] to equal refUpdateNear's
// after every step.
func TestUpdateNearMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	shapes := [][2]int{{1, 1}, {1, 6}, {6, 1}, {3, 5}, {5, 3}, {8, 8}, {9, 12}, {12, 9}}
	for trial := 0; trial < 300; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		fp := floorplan.New(shape[0], shape[1])
		n := fp.N()
		cfg := DefaultConfig()
		cfg.SpreadCap = rng.Intn(shape[0] + shape[1] + 2)
		h, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &policy.Context{Chip: &variation.Chip{Floorplan: fp}}
		got, want := make([]int, n), make([]int, n)
		for c := range got {
			got[c], want[c] = cfg.SpreadCap, cfg.SpreadCap
		}
		for _, i := range rng.Perm(n)[:1+rng.Intn(n)] {
			h.updateNear(ctx, got, i)
			h.refUpdateNear(ctx, want, i)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("%d×%d cap %d, core %d powered: near[%d] = %d, reference %d",
						shape[0], shape[1], cfg.SpreadCap, i, c, got[c], want[c])
				}
			}
		}
	}
}

// slotsFromBytes builds a candidate slot set for the pick tests: few
// distinct weights, chip-average healths and peak temperatures, so exact
// ties are common, and a bound per slot that sometimes equals the weight
// and sometimes exceeds it. hidden holds the exact weights and
// chip-average healths weigh and tieHealth reveal.
func slotsFromBytes(data []byte) (cs []candidate, hidden []candidate) {
	for i := 0; i+1 < len(data) && len(cs) < 64; i += 2 {
		a, b := data[i], data[i+1]
		c := candidate{
			core:     len(cs),
			weight:   float64(a&3) * 0.5,
			hAvgNext: 0.9 + 0.05*float64(a>>2&1),
			tMaxNext: 330 + float64(a>>3&1),
		}
		switch b & 3 {
		case 0:
			c.ub = c.weight
		case 1:
			c.ub = math.Nextafter(c.weight, math.Inf(1))
		default:
			c.ub = c.weight + float64(b>>2&7)*0.25
		}
		hidden = append(hidden, c)
		cs = append(cs, candidate{core: c.core, ub: c.ub, tMaxNext: c.tMaxNext, weight: -1, hAvgNext: -1})
	}
	return cs, hidden
}

// referencePick is the first element of the reference's
// sort.Stable(&refCandSorter) over fully evaluated slots.
func referencePick(hidden []candidate) int {
	s := refCandSorter{cs: make([]refCandidate, len(hidden))}
	for i, c := range hidden {
		s.cs[i] = refCandidate{core: c.core, weight: c.weight, hAvgNext: c.hAvgNext, tMaxNext: c.tMaxNext}
	}
	sort.Stable(&s)
	return s.cs[0].core
}

// checkPick runs pickCandidate on the slots from data and compares it
// with referencePick, and checks that tieHealth ran only for slots tied
// at the top weight.
func checkPick(t *testing.T, data []byte) {
	cs, hidden := slotsFromBytes(data)
	if len(cs) == 0 {
		return
	}
	top := math.Inf(-1)
	for _, c := range hidden {
		top = math.Max(top, c.weight)
	}
	weigh := func(c *candidate) { c.weight = hidden[c.core].weight }
	tieHealth := func(c *candidate) float64 {
		if c.weight != top {
			t.Fatalf("tieHealth ran for core %d with weight %v below the top %v", c.core, c.weight, top)
		}
		return hidden[c.core].hAvgNext
	}
	k, err := pickCandidate(cs, weigh, tieHealth)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cs[k].core, referencePick(hidden); got != want {
		t.Fatalf("picked core %d, reference %d (slots %+v)", got, want, hidden)
	}
}

// TestPickCandidateTies pins the tie rules on hand-built slot sets.
func TestPickCandidateTies(t *testing.T) {
	for _, data := range [][]byte{
		{3, 0},
		{3, 0, 3, 0},              // full tie: earliest core
		{3, 0, 7, 0},              // tie in weight, higher health wins
		{3 | 8, 0, 3, 0},          // tie in weight and health, cooler wins
		{1, 8, 3, 0, 3, 1, 2, 30}, // a pruned slot beside a two-way tie
		{2, 0, 3, 30, 0, 0},       // the loosest bound wins, the rest are pruned
		{0, 30, 3, 0, 2, 2},       // the loosest bound loses
	} {
		checkPick(t, data)
	}
}

// TestPickCandidateRejectsNonFinite checks that a NaN or infinite weight
// is an error rather than an arbitrary pick.
func TestPickCandidateRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cs := []candidate{{core: 0, ub: 1}, {core: 1, ub: bad}}
		weigh := func(c *candidate) {
			c.weight = 1
			if c.core == 1 {
				c.weight = bad
			}
		}
		if _, err := pickCandidate(cs, weigh, func(*candidate) float64 { return 0 }); err == nil {
			t.Errorf("weight %v accepted", bad)
		}
	}
}

// FuzzPickCandidate compares pickCandidate with the first element of the
// reference's stable sort on slot sets full of exact ties in weight,
// chip-average health and peak temperature, with some slots pruned by
// their bound.
func FuzzPickCandidate(f *testing.F) {
	f.Add([]byte{3, 0, 3, 0})
	f.Add([]byte{1, 8, 3, 0, 3, 1, 2, 30, 7, 2, 11, 0})
	f.Add([]byte{0, 0, 0, 4, 0, 8, 0, 1, 3, 3, 15, 1, 15, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPick(t, data)
	})
}
