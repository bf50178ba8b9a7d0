package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"github.com/kit-ces/hayat/internal/persist"
)

// checkResult decodes one lifetime result in the JSON form hayatd serves
// and LifetimeResult.WriteJSON writes, and checks that it belongs to the
// requested chip and policy, has one record per epoch, keeps every health
// value in [0,1], and never lets the chip-average maximum frequency rise.
// Every number is finite: JSON cannot carry NaN or infinities, so a
// result holding one fails to encode before it gets here.
func checkResult(data []byte, seed int64, policy string, epochs int) (persist.ResultRecord, error) {
	rec, err := persist.LoadResult(bytes.NewReader(data))
	if err != nil {
		return rec, err
	}
	switch {
	case rec.ChipSeed != seed:
		return rec, fmt.Errorf("result is for chip %d, want %d", rec.ChipSeed, seed)
	case rec.Policy != policy:
		return rec, fmt.Errorf("result is for policy %q, want %q", rec.Policy, policy)
	case len(rec.Epochs) != epochs:
		return rec, fmt.Errorf("result has %d epochs, want %d", len(rec.Epochs), epochs)
	}
	health := append([]float64(nil), rec.FinalHealth...)
	for _, e := range rec.Epochs {
		health = append(health, e.AvgHealth, e.MinHealth)
	}
	for _, h := range health {
		if h < 0 || h > 1 {
			return rec, fmt.Errorf("health %v outside [0,1]", h)
		}
	}
	prev := mean(rec.InitialFMax)
	for _, e := range rec.Epochs {
		if e.AvgFMax > prev {
			return rec, fmt.Errorf("average fmax rises from %v to %v Hz at epoch %d", prev, e.AvgFMax, e.Epoch)
		}
		prev = e.AvgFMax
	}
	return rec, nil
}

// epochsOf is the epoch count a lifetime result must have.
func epochsOf(years, epochYears float64) int { return int(math.Round(years / epochYears)) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// simStats are the simulated statistics of a set of results: a change
// that only claims speed must leave them identical.
func simStats(recs []persist.ResultRecord, ambientK float64) map[string]float64 {
	var temp, loss float64
	for _, r := range recs {
		t := 0.0
		for _, e := range r.Epochs {
			t += e.AvgTemp
		}
		temp += t/float64(len(r.Epochs)) - ambientK
		loss += (mean(r.InitialFMax) - r.Epochs[len(r.Epochs)-1].AvgFMax) / 1e6
	}
	n := float64(len(recs))
	return map[string]float64{
		"sim.mean_temp_over_ambient_k": temp / n,
		"sim.avg_fmax_loss_mhz":        loss / n,
	}
}

// dtmAndPlacement returns the DTM events per lifetime and the share of
// threads the policy placed, over recs.
func dtmAndPlacement(recs []persist.ResultRecord) (dtmPerLifetime, placed float64) {
	if len(recs) == 0 {
		return 0, 0
	}
	var events, mapped, unmapped int
	for _, r := range recs {
		events += r.Migrations + r.Throttles
		for _, e := range r.Epochs {
			mapped += e.Mapped
			unmapped += e.Unmapped
		}
	}
	if mapped+unmapped > 0 {
		placed = float64(mapped) / float64(mapped+unmapped)
	}
	return float64(events) / float64(len(recs)), placed
}

// digest is the SHA-256 over results in order.
func digest(results [][]byte) string {
	h := sha256.New()
	for _, r := range results {
		h.Write(r)
	}
	return hex.EncodeToString(h.Sum(nil))
}
