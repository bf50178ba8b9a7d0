package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// errStop ends a run once checkpointAt holds its checkpoint.
var errStop = errors.New("checkpoint taken")

// checkpointAt runs e's first n epochs and returns the checkpoint there.
// A sink that stops the run at its first call does it, as hayatsim's
// -checkpoint does: that call comes at the first remix boundary at or
// after n, which must be n itself.
func checkpointAt(t testing.TB, e *Engine, n int) *Checkpoint {
	t.Helper()
	var cp *Checkpoint
	_, err := e.Run(context.Background(), nil, n, func(c *Checkpoint) error {
		cp = c
		return errStop
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("checkpoint at epoch %d: run ended with %v", n, err)
	}
	if cp.NextEpoch != n {
		t.Fatalf("checkpoint at epoch %d, want %d", cp.NextEpoch, n)
	}
	return cp
}

// resume runs e from cp to the end of the lifetime.
func resume(e *Engine, cp *Checkpoint) (*Result, error) {
	return e.Run(context.Background(), cp, 0, nil)
}

// Checkpoint + resume must reproduce the one-shot run exactly when no DTM
// transients straddle the boundary (50 % dark stays cool, so none do).
func TestCheckpointResumeMatchesOneShot(t *testing.T) {
	cfg := shortConfig() // 4 epochs, RemixEpochs 4 → boundary only at 0/4
	cfg.RemixEpochs = 2  // boundaries at 0 and 2
	mkEngine := func() *Engine { return newEngine(t, cfg, hayatPolicy(t), 17) }

	full, err := mkEngine().Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	cp := checkpointAt(t, mkEngine(), 2)
	if len(cp.Records) != 2 {
		t.Fatalf("checkpoint meta: %+v", cp)
	}
	// Serialise through JSON to prove the round trip.
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	cp2, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := resume(mkEngine(), cp2)
	if err != nil {
		t.Fatal(err)
	}

	if len(resumed.Records) != len(full.Records) {
		t.Fatalf("records: %d vs %d", len(resumed.Records), len(full.Records))
	}
	for i := range full.Records {
		if resumed.Records[i] != full.Records[i] {
			t.Fatalf("epoch %d differs:\n one-shot %+v\n resumed  %+v", i, full.Records[i], resumed.Records[i])
		}
	}
	for i := range full.FinalHealth {
		if resumed.FinalHealth[i] != full.FinalHealth[i] {
			t.Fatalf("final health differs at core %d", i)
		}
	}
	if resumed.TotalDTM != full.TotalDTM {
		t.Fatalf("DTM totals differ: %+v vs %+v", resumed.TotalDTM, full.TotalDTM)
	}
}

func TestCheckpointValidation(t *testing.T) {
	cfg := shortConfig()
	cfg.RemixEpochs = 2
	e := newEngine(t, cfg, hayatPolicy(t), 18)
	cp := checkpointAt(t, e, 2)

	// Wrong chip.
	other := newEngine(t, cfg, hayatPolicy(t), 19)
	if _, err := resume(other, cp); err == nil {
		t.Error("checkpoint accepted by a different chip")
	}
	// Wrong policy.
	vaa := newEngine(t, cfg, vaaPolicy(t), 18)
	if _, err := resume(vaa, cp); err == nil {
		t.Error("checkpoint accepted by a different policy")
	}
	// Off-boundary epoch.
	bad := *cp
	bad.NextEpoch = 3
	bad.Records = append(bad.Records, EpochRecord{})
	if _, err := resume(e, &bad); err == nil {
		t.Error("off-boundary checkpoint accepted")
	}
	// Corrupt health.
	bad2 := *cp
	bad2.Health = append([]float64(nil), cp.Health...)
	bad2.Health[0] = -1
	if _, err := resume(e, &bad2); err == nil {
		t.Error("corrupt health accepted")
	}
	// Record/epoch mismatch.
	bad3 := *cp
	bad3.Records = cp.Records[:1]
	if _, err := resume(e, &bad3); err == nil {
		t.Error("record mismatch accepted")
	}
	// Epoch past the end of the lifetime.
	bad4 := *cp
	bad4.NextEpoch = e.Epochs() + 2
	if _, err := resume(e, &bad4); err == nil {
		t.Error("out-of-range checkpoint epoch accepted")
	}
}

// A checkpoint computed by another engine version must not resume into a
// hybrid run: neither one written before checkpoints carried the version
// nor one from an older engine.
func TestCheckpointRejectsOtherEngine(t *testing.T) {
	cfg := shortConfig()
	cfg.RemixEpochs = 2
	e := newEngine(t, cfg, hayatPolicy(t), 18)
	cp := checkpointAt(t, e, 2)
	if cp.Engine != EngineVersion {
		t.Fatalf("checkpoint records engine %d, want %d", cp.Engine, EngineVersion)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	field := fmt.Sprintf("\"engine\": %d,", EngineVersion)
	if !strings.Contains(buf.String(), field) {
		t.Fatalf("serialised checkpoint lacks %s", field)
	}
	for name, replace := range map[string]string{
		"unversioned": "",
		"older":       fmt.Sprintf("\"engine\": %d,", EngineVersion-1),
	} {
		old, err := ReadCheckpoint(strings.NewReader(strings.Replace(buf.String(), field, replace, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resume(e, old); err == nil || !strings.Contains(err.Error(), "engine version") {
			t.Errorf("%s checkpoint: resume err = %v, want an engine-version rejection", name, err)
		}
	}
	if _, err := resume(e, cp); err != nil {
		t.Fatalf("current checkpoint rejected: %v", err)
	}
}

// Without remix boundaries (RemixEpochs 0) the mix's phase state cannot
// be rebuilt: the sink is never called, the run equals a plain one, and a
// mid-run checkpoint does not resume.
func TestCheckpointUnsupportedWithoutRemix(t *testing.T) {
	cfg := shortConfig()
	cfg.RemixEpochs = 0
	e := newEngine(t, cfg, vaaPolicy(t), 18)
	plain, err := e.Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	res, err := e.Run(context.Background(), nil, 1, func(*Checkpoint) error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("sink called %d times without remix boundaries", calls)
	}
	if len(res.Records) != e.Epochs() {
		t.Fatalf("%d records", len(res.Records))
	}
	for i := range plain.Records {
		if res.Records[i] != plain.Records[i] {
			t.Fatalf("epoch %d differs from the plain run", i)
		}
	}

	withRemix := cfg
	withRemix.RemixEpochs = 2
	cp := checkpointAt(t, newEngine(t, withRemix, vaaPolicy(t), 18), 2)
	if _, err := resume(e, cp); err == nil {
		t.Fatal("mid-run checkpoint accepted without remix boundaries")
	}
}

func TestReadCheckpointGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// A checkpointed run must call the sink at every eligible boundary and
// still produce the exact one-shot result; resuming from any of the
// emitted checkpoints must too.
func TestRunCheckpointedCadenceAndResume(t *testing.T) {
	cfg := shortConfig()
	cfg.Years = cfg.EpochYears * 8 // 8 epochs
	cfg.RemixEpochs = 2            // boundaries at 2, 4, 6
	mkEngine := func() *Engine { return newEngine(t, cfg, hayatPolicy(t), 21) }

	full, err := mkEngine().Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	var cps []*Checkpoint
	res, err := mkEngine().Run(context.Background(), nil, 0, func(cp *Checkpoint) error {
		cps = append(cps, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 3 {
		t.Fatalf("sink called %d times, want 3 (epochs 2,4,6)", len(cps))
	}
	for i, want := range []int{2, 4, 6} {
		if cps[i].NextEpoch != want {
			t.Fatalf("checkpoint %d at epoch %d, want %d", i, cps[i].NextEpoch, want)
		}
	}
	if res.TotalDTM != full.TotalDTM || len(res.Records) != len(full.Records) {
		t.Fatalf("checkpointed run diverged from one-shot: %+v vs %+v", res.TotalDTM, full.TotalDTM)
	}
	for i := range full.Records {
		if res.Records[i] != full.Records[i] {
			t.Fatalf("epoch %d differs under checkpointing", i)
		}
	}

	// every=3 rounds up to a multiple of RemixEpochs (4): only epoch 4.
	count := 0
	if _, err := mkEngine().Run(context.Background(), nil, 3, func(*Checkpoint) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("every=3 (rounded to 4) called sink %d times, want 1", count)
	}

	// Resume from the middle checkpoint, with further checkpointing, and
	// require the exact one-shot result including carried DTM totals.
	var lateCps []*Checkpoint
	resumed, err := mkEngine().Run(context.Background(), cps[1], 0, func(cp *Checkpoint) error {
		lateCps = append(lateCps, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lateCps) != 1 || lateCps[0].NextEpoch != 6 {
		t.Fatalf("resume sink saw %d checkpoints, want one at epoch 6", len(lateCps))
	}
	for i := range full.Records {
		if resumed.Records[i] != full.Records[i] {
			t.Fatalf("resumed epoch %d differs from one-shot", i)
		}
	}
	if resumed.TotalDTM != full.TotalDTM {
		t.Fatalf("resumed DTM totals %+v, want %+v", resumed.TotalDTM, full.TotalDTM)
	}
	// The mid-resume checkpoint must itself resume to the same end state.
	again, err := resume(mkEngine(), lateCps[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.FinalHealth {
		if again.FinalHealth[i] != full.FinalHealth[i] {
			t.Fatalf("second-generation resume diverged at core %d", i)
		}
	}
}
