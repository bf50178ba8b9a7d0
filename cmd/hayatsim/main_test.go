package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runHayat runs hayatsim's default Hayat lifetime of chip 1 over the given
// years, writing the result JSON to jsonPath (none when empty), a
// checkpoint after checkpointAt epochs to checkpointPath (when set), or
// resuming from resumePath (when set).
func runHayat(years float64, jsonPath, checkpointPath string, checkpointAt int, resumePath string) error {
	return run("hayat", 1, 0.5, years, 0.25, false, jsonPath, "", "0", checkpointPath, checkpointAt, resumePath)
}

// Splitting a run with -checkpoint/-checkpoint-at and finishing it with
// -resume writes the same result bytes as the one-shot run.
func TestCheckpointThenResumeMatchesOneShot(t *testing.T) {
	dir := t.TempDir()
	a, b, cp := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "cp.json")
	if err := runHayat(10, a, "", 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := runHayat(10, "", cp, 20, ""); err != nil {
		t.Fatal(err)
	}
	if err := runHayat(10, b, "", 0, cp); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint + resume wrote other bytes than the one-shot run")
	}
}

// The checkpoint file is published atomically: no temp file is left
// beside it, an overwrite renames over the old file, and a write into a
// missing directory fails, as does resuming from a missing file.
func TestWriteCheckpointFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := runHayat(2, "", path, 4, ""); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
		t.Fatalf("directory not clean after atomic write: %v", entries)
	}
	if err := runHayat(2, "", path, 4, ""); err != nil {
		t.Fatalf("atomic overwrite failed: %v", err)
	}
	if err := runHayat(2, "", filepath.Join(dir, "no-such-dir", "x.ckpt"), 4, ""); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
	if err := runHayat(2, "", "", 0, filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("resuming from a missing checkpoint succeeded")
	}
}

// -checkpoint-at must name a remix boundary (every 4 epochs by default)
// above 0 and below the lifetime's 8 epochs; otherwise no checkpoint is
// written.
func TestCheckpointAtMustBeAnInnerRemixBoundary(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		at   int
		want string
	}{
		{2, "not a remix boundary"},
		{0, "above 0"},
		{-4, "above 0"},
		{8, "below the lifetime's 8"},
		{12, "below the lifetime's 8"},
	} {
		path := filepath.Join(dir, "cp.json")
		err := runHayat(2, "", path, c.at, "")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-checkpoint-at %d: err %v, want one containing %q", c.at, err, c.want)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Errorf("-checkpoint-at %d left a checkpoint file (%v)", c.at, serr)
		}
	}
}
