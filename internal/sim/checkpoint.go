package sim

import (
	"encoding/json"
	"fmt"
	"io"

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

// CheckpointSink receives periodic checkpoints during a run (see Run). A
// non-nil error aborts the run; sinks that persist best-effort should
// swallow their own failures and return nil.
type CheckpointSink func(cp *Checkpoint) error

// WriteCheckpoint serialises the checkpoint as indented JSON.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cp)
}

// ReadCheckpoint deserialises a checkpoint (structural validation happens
// when Run restores it, against the engine).
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint: %w", err)
	}
	return &cp, nil
}
