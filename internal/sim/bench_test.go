package sim

import (
	"context"
	"testing"

	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/policy"
)

// benchConfig is one epoch of the default chip: Years = EpochYears so a
// run executes exactly one mapping + thermal + aging cycle — the unit
// the epoch-kernel optimisations target. RemixEpochs is zero so the
// steady state replays one workload mix instead of re-generating it.
func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.Years = cfg.EpochYears
	cfg.RemixEpochs = 0
	return cfg
}

// benchWarmupEpochs lets the scratch arenas size themselves and the
// malleable mix grow to saturation before measurement starts; after it,
// an epoch is in steady state (no mix regeneration, no arena growth).
const benchWarmupEpochs = 8

// warmState builds a run state and drives it to the steady state.
func warmState(tb testing.TB, e *Engine) *runState {
	tb.Helper()
	st, err := e.newRunState()
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.runRange(context.Background(), st, 0, benchWarmupEpochs); err != nil {
		tb.Fatal(err)
	}
	return st
}

// resetEpochState rewinds the aging/thermal state to its epoch-0 values
// without touching the scratch arenas or the workload mix, so one
// benchmark iteration replays one steady-state epoch on a fresh chip.
func resetEpochState(e *Engine, st *runState) {
	amb := e.tm.Ambient()
	for i := range st.health {
		st.health[i] = aging.NewState()
		st.fmax[i] = e.chip.FMax0[i]
		st.temps[i] = amb
		st.lastUsed[i] = -1 << 30
	}
	for i := range st.prevOn {
		st.prevOn[i] = false
	}
	st.records = st.records[:0]
}

// runSteadyEpoch executes exactly one epoch on a warmed state. Epoch
// index 1 avoids the remix boundary at 0 (RemixEpochs=0 never remixes,
// but keeps the intent explicit).
func runSteadyEpoch(tb testing.TB, e *Engine, st *runState) {
	if err := e.runRange(context.Background(), st, 1, 2); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSingleChipEpoch measures the steady-state epoch kernel (Hayat
// policy, default 8×8 floorplan): the run state is warmed once, and each
// iteration replays one epoch on reused scratch arenas.
func BenchmarkSingleChipEpoch(b *testing.B) {
	benchSteadyEpoch(b, hayatPolicy(b))
}

// BenchmarkSingleChipEpochVAA is the baseline policy's epoch, for
// comparing policy overhead (VAA has no candidate search).
func BenchmarkSingleChipEpochVAA(b *testing.B) {
	benchSteadyEpoch(b, vaaPolicy(b))
}

func benchSteadyEpoch(b *testing.B, pol policy.Policy) {
	e := newEngine(b, benchConfig(), pol, 1)
	st := warmState(b, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetEpochState(e, st)
		runSteadyEpoch(b, e, st)
	}
}

// TestEpochKernelSteadyStateAllocs pins the PR10 allocation contract for
// both policies: a steady-state epoch performs (almost) no heap
// allocations — every per-epoch buffer lives in the runState/policy
// scratch arenas. The budget of 10 leaves headroom for incidental small
// allocations without letting a per-core or per-step regression slip
// through (the pre-PR10 kernel allocated ~985 times per epoch, and VAA
// 14 times before it recycled its assignment and kept its sort buffer).
func TestEpochKernelSteadyStateAllocs(t *testing.T) {
	for _, pol := range []policy.Policy{hayatPolicy(t), vaaPolicy(t)} {
		e := newEngine(t, benchConfig(), pol, 1)
		st := warmState(t, e)
		avg := testing.AllocsPerRun(10, func() {
			resetEpochState(e, st)
			runSteadyEpoch(t, e, st)
		})
		if avg > 10 {
			t.Errorf("%s: steady-state epoch allocates %.1f times per run, want ≤10", pol.Name(), avg)
		}
	}
}
