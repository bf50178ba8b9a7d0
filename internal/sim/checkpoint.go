package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/kit-ces/hayat/internal/dtm"
)

// Checkpoint is the engine's serialisable state at an epoch boundary, for
// splitting long campaigns across processes. Checkpoints are only valid
// at workload-remix boundaries (NextEpoch % RemixEpochs == 0): the mix is
// regenerated deterministically there, so no thread phase state needs to
// survive serialisation. In-flight DTM transients (throttle marks,
// migration cooldowns) are intentionally dropped — they are sub-second
// artefacts against month-long epochs.
type Checkpoint struct {
	Version int `json:"version"`
	// Engine is the EngineVersion that computed the checkpointed epochs;
	// resuming them under another engine would splice two numerics into
	// one Result. Checkpoints from before the field existed read as 0.
	Engine     int           `json:"engine"`
	ChipSeed   int64         `json:"chip_seed"`
	Policy     string        `json:"policy"`
	NextEpoch  int           `json:"next_epoch"`
	Health     []float64     `json:"health"`
	Temps      []float64     `json:"temps_k"`
	LastUsed   []int         `json:"last_used_epoch"`
	PrevOn     []bool        `json:"prev_on"`
	Migrations int           `json:"dtm_migrations"`
	Throttles  int           `json:"dtm_throttles"`
	Records    []EpochRecord `json:"records"`
}

// checkpointVersion is bumped on incompatible layout changes.
const checkpointVersion = 1

// Validate checks structural consistency against an engine.
func (cp *Checkpoint) Validate(e *Engine) error {
	if cp.Version != checkpointVersion {
		return fmt.Errorf("sim: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.Engine != EngineVersion {
		return fmt.Errorf("sim: checkpoint from engine version %d, this is engine version %d", cp.Engine, EngineVersion)
	}
	if cp.ChipSeed != e.chip.Seed {
		return fmt.Errorf("sim: checkpoint for chip %d, engine has chip %d", cp.ChipSeed, e.chip.Seed)
	}
	if cp.Policy != e.pol.Name() {
		return fmt.Errorf("sim: checkpoint for policy %q, engine runs %q", cp.Policy, e.pol.Name())
	}
	n := e.chip.Floorplan.N()
	if len(cp.Health) != n || len(cp.Temps) != n || len(cp.LastUsed) != n {
		return fmt.Errorf("sim: checkpoint arrays inconsistent with %d cores", n)
	}
	if cp.PrevOn != nil && len(cp.PrevOn) != n {
		return fmt.Errorf("sim: checkpoint PrevOn sized %d, want %d", len(cp.PrevOn), n)
	}
	if cp.NextEpoch < 0 || cp.NextEpoch > e.Epochs() {
		return fmt.Errorf("sim: checkpoint epoch %d outside [0,%d]", cp.NextEpoch, e.Epochs())
	}
	if e.cfg.RemixEpochs > 0 {
		if cp.NextEpoch%e.cfg.RemixEpochs != 0 {
			return fmt.Errorf("sim: checkpoint epoch %d is not a remix boundary (RemixEpochs=%d)",
				cp.NextEpoch, e.cfg.RemixEpochs)
		}
	} else if cp.NextEpoch != 0 {
		return fmt.Errorf("sim: with RemixEpochs=0 the mix's phase state cannot be reconstructed; checkpointing unsupported")
	}
	if len(cp.Records) != cp.NextEpoch {
		return fmt.Errorf("sim: checkpoint has %d records for %d completed epochs", len(cp.Records), cp.NextEpoch)
	}
	for i, h := range cp.Health {
		if h <= 0 || h > 1 {
			return fmt.Errorf("sim: checkpoint health[%d] = %v", i, h)
		}
	}
	return nil
}

// snapshot captures a checkpoint from a run state that has completed
// epochs [0, nextEpoch).
func (e *Engine) snapshot(st *runState, nextEpoch int) (*Checkpoint, error) {
	cp := &Checkpoint{
		Version:   checkpointVersion,
		Engine:    EngineVersion,
		ChipSeed:  e.chip.Seed,
		Policy:    e.pol.Name(),
		NextEpoch: nextEpoch,
		Temps:     append([]float64(nil), st.temps...),
		LastUsed:  append([]int(nil), st.lastUsed...),
		Records:   append([]EpochRecord(nil), st.records...),
	}
	cp.Health = make([]float64, len(st.health))
	for i := range st.health {
		cp.Health[i] = st.health[i].Factor
	}
	if st.prevOn != nil {
		cp.PrevOn = append([]bool(nil), st.prevOn...)
	}
	stats := st.dtmMgr.Stats()
	stats.Add(st.dtmBase)
	cp.Migrations, cp.Throttles = stats.Migrations, stats.Throttles
	if err := cp.Validate(e); err != nil {
		return nil, err
	}
	return cp, nil
}

// restore builds the run state a validated checkpoint describes.
func (e *Engine) restore(cp *Checkpoint) (*runState, error) {
	if err := cp.Validate(e); err != nil {
		return nil, err
	}
	st, err := e.newRunState()
	if err != nil {
		return nil, err
	}
	for i := range st.health {
		st.health[i].Factor = cp.Health[i]
		st.fmax[i] = e.chip.FMax0[i] * cp.Health[i]
		st.temps[i] = cp.Temps[i]
		st.lastUsed[i] = cp.LastUsed[i]
	}
	if cp.PrevOn != nil {
		st.prevOn = append([]bool(nil), cp.PrevOn...)
	}
	st.records = append([]EpochRecord(nil), cp.Records...)
	st.dtmBase = dtm.Stats{Migrations: cp.Migrations, Throttles: cp.Throttles}
	return st, nil
}

// RunCheckpoint runs epochs [0, uptoEpoch) and captures the state.
// uptoEpoch must be a remix boundary (see Checkpoint).
func (e *Engine) RunCheckpoint(uptoEpoch int) (*Checkpoint, error) {
	st, err := e.newRunState()
	if err != nil {
		return nil, err
	}
	if uptoEpoch < 0 || uptoEpoch > e.Epochs() {
		return nil, fmt.Errorf("sim: uptoEpoch %d outside [0,%d]", uptoEpoch, e.Epochs())
	}
	//lint:ignore ctxfirst compatibility wrapper: context-free callers get the uncancellable root by design
	if err := e.runRange(context.Background(), st, 0, uptoEpoch); err != nil {
		return nil, err
	}
	return e.snapshot(st, uptoEpoch)
}

// Resume continues a checkpointed run to the end of the lifetime and
// returns the complete result (including the checkpointed epochs).
func (e *Engine) Resume(cp *Checkpoint) (*Result, error) {
	//lint:ignore ctxfirst compatibility wrapper: context-free callers get the uncancellable root by design
	return e.ResumeContext(context.Background(), cp)
}

// ResumeContext is Resume with cooperative cancellation at epoch
// boundaries (see RunContext).
func (e *Engine) ResumeContext(ctx context.Context, cp *Checkpoint) (*Result, error) {
	return e.ResumeContextCheckpointed(ctx, cp, 0, nil)
}

// CheckpointSink receives periodic checkpoints during a run. A non-nil
// error aborts the run; sinks that persist best-effort should swallow
// their own failures and return nil.
type CheckpointSink func(cp *Checkpoint) error

// RunContextCheckpointed is RunContext with periodic checkpointing: sink
// is invoked at every workload-remix boundary that is a multiple of
// `every` epochs (every ≤ RemixEpochs means every remix boundary). With a
// nil sink, or on configurations without remix boundaries
// (RemixEpochs = 0), it degrades to RunContext.
func (e *Engine) RunContextCheckpointed(ctx context.Context, every int, sink CheckpointSink) (*Result, error) {
	st, err := e.newRunState()
	if err != nil {
		return nil, err
	}
	return e.runCheckpointed(ctx, st, 0, every, sink)
}

// ResumeContextCheckpointed continues a checkpointed run with the same
// periodic checkpointing as RunContextCheckpointed, so a run interrupted
// repeatedly keeps moving forward from its most recent boundary.
func (e *Engine) ResumeContextCheckpointed(ctx context.Context, cp *Checkpoint, every int, sink CheckpointSink) (*Result, error) {
	st, err := e.restore(cp)
	if err != nil {
		return nil, err
	}
	return e.runCheckpointed(ctx, st, cp.NextEpoch, every, sink)
}

// runCheckpointed executes epochs [from, Epochs) in checkpoint-cadence
// chunks, invoking sink between chunks.
func (e *Engine) runCheckpointed(ctx context.Context, st *runState, from, every int, sink CheckpointSink) (*Result, error) {
	total := e.Epochs()
	if sink == nil || e.cfg.RemixEpochs <= 0 {
		if err := e.runRange(ctx, st, from, total); err != nil {
			return nil, err
		}
		return e.packageResult(st), nil
	}
	stride := e.cfg.RemixEpochs
	if every > stride {
		// Round the cadence up to a multiple of the remix interval:
		// checkpoints are only valid on remix boundaries.
		stride = (every + e.cfg.RemixEpochs - 1) / e.cfg.RemixEpochs * e.cfg.RemixEpochs
	}
	for at := from; at < total; {
		next := at - at%stride + stride
		if next > total {
			next = total
		}
		if err := e.runRange(ctx, st, at, next); err != nil {
			return nil, err
		}
		at = next
		if at < total && at%e.cfg.RemixEpochs == 0 {
			cp, err := e.snapshot(st, at)
			if err != nil {
				return nil, err
			}
			if err := sink(cp); err != nil {
				return nil, fmt.Errorf("sim: checkpoint sink at epoch %d: %w", at, err)
			}
		}
	}
	return e.packageResult(st), nil
}

// WriteCheckpoint serialises the checkpoint as indented JSON.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cp)
}

// ReadCheckpoint deserialises a checkpoint (structural validation happens
// at Resume, against the engine).
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint: %w", err)
	}
	return &cp, nil
}

// WriteCheckpointFile persists the checkpoint atomically: the JSON is
// written to a temporary file in the target directory and renamed into
// place, so a crash mid-write can never leave a torn checkpoint where a
// reader expects a valid one.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("sim: checkpoint temp file: %w", err)
	}
	err = WriteCheckpoint(tmp, cp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("sim: writing checkpoint: %w", cerr)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sim: publishing checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpointFile reads a checkpoint written by WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sim: opening checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
