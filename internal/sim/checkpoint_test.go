package sim

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// Checkpoint + Resume must reproduce the one-shot run exactly when no DTM
// transients straddle the boundary (50 % dark stays cool, so none do).
func TestCheckpointResumeMatchesOneShot(t *testing.T) {
	cfg := shortConfig() // 4 epochs, RemixEpochs 4 → boundary only at 0/4
	cfg.RemixEpochs = 2  // boundaries at 0 and 2
	mkEngine := func() *Engine { return newEngine(t, cfg, hayatPolicy(t), 17) }

	full, err := mkEngine().RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	e2 := mkEngine()
	cp, err := e2.RunCheckpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if cp.NextEpoch != 2 || len(cp.Records) != 2 {
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
	resumed, err := mkEngine().Resume(cp2)
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
	cp, err := e.RunCheckpoint(2)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong chip.
	other := newEngine(t, cfg, hayatPolicy(t), 19)
	if _, err := other.Resume(cp); err == nil {
		t.Error("checkpoint accepted by a different chip")
	}
	// Wrong policy.
	vaa := newEngine(t, cfg, vaaPolicy(t), 18)
	if _, err := vaa.Resume(cp); err == nil {
		t.Error("checkpoint accepted by a different policy")
	}
	// Off-boundary epoch.
	bad := *cp
	bad.NextEpoch = 3
	bad.Records = append(bad.Records, EpochRecord{})
	if _, err := e.Resume(&bad); err == nil {
		t.Error("off-boundary checkpoint accepted")
	}
	// Corrupt health.
	bad2 := *cp
	bad2.Health = append([]float64(nil), cp.Health...)
	bad2.Health[0] = -1
	if _, err := e.Resume(&bad2); err == nil {
		t.Error("corrupt health accepted")
	}
	// Record/epoch mismatch.
	bad3 := *cp
	bad3.Records = cp.Records[:1]
	if _, err := e.Resume(&bad3); err == nil {
		t.Error("record mismatch accepted")
	}
	// RunCheckpoint range check.
	if _, err := e.RunCheckpoint(99); err == nil {
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
	cp, err := e.RunCheckpoint(2)
	if err != nil {
		t.Fatal(err)
	}
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
		if _, err := e.Resume(old); err == nil || !strings.Contains(err.Error(), "engine version") {
			t.Errorf("%s checkpoint: Resume err = %v, want an engine-version rejection", name, err)
		}
	}
	if _, err := e.Resume(cp); err != nil {
		t.Fatalf("current checkpoint rejected: %v", err)
	}
}

func TestCheckpointUnsupportedWithoutRemix(t *testing.T) {
	cfg := shortConfig()
	cfg.RemixEpochs = 0
	e := newEngine(t, cfg, vaaPolicy(t), 18)
	if _, err := e.RunCheckpoint(2); err == nil {
		t.Fatal("mid-run checkpoint without remix boundaries accepted")
	}
	// Epoch 0 is fine (trivial checkpoint).
	cp, err := e.RunCheckpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Resume(cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != e.Epochs() {
		t.Fatalf("%d records", len(res.Records))
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

	full, err := mkEngine().RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var cps []*Checkpoint
	res, err := mkEngine().RunContextCheckpointed(context.Background(), 0, func(cp *Checkpoint) error {
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
	if _, err := mkEngine().RunContextCheckpointed(context.Background(), 3, func(*Checkpoint) error {
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
	resumed, err := mkEngine().ResumeContextCheckpointed(context.Background(), cps[1], 0, func(cp *Checkpoint) error {
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
	again, err := mkEngine().Resume(lateCps[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.FinalHealth {
		if again.FinalHealth[i] != full.FinalHealth[i] {
			t.Fatalf("second-generation resume diverged at core %d", i)
		}
	}
}
