package hayat

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzParsePolicy throws arbitrary strings at the policy parser: it must
// never panic, and any accepted policy must round-trip through its
// canonical String() spelling (the service uses that spelling as part of
// the cache key, so the round-trip is a correctness property, not just
// hygiene).
func FuzzParsePolicy(f *testing.F) {
	f.Add("hayat")
	f.Add("VAA")
	f.Add("  Hayat \t")
	f.Add("")
	f.Add("greedy")
	f.Add("hayat\x00")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil {
			return
		}
		again, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("canonical spelling %q of accepted policy does not reparse: %v", p, err)
		}
		if again != p {
			t.Fatalf("round-trip changed policy: %v → %v", p, again)
		}
	})
}

// FuzzRunLifetime runs small random configurations end to end and checks
// the physical invariants every accepted Result must satisfy: finite
// outputs, health in (0, 1] that never recovers between epochs, the
// dark-silicon budget honoured, temperatures at or above ambient, and
// one record per epoch. Configurations Validate rejects are skipped.
func FuzzRunLifetime(f *testing.F) {
	// rows, cols, years, window, dark, mixSeed, mixApps, vaa, hci, turbo, noise
	f.Add(uint8(3), uint8(3), 1.0, 1.0, 0.5, int64(1), uint8(2), false, false, false, 0.0)
	f.Add(uint8(1), uint8(0), 0.25, 0.02, 0.0, int64(7), uint8(1), true, false, false, 0.0)
	f.Add(uint8(1), uint8(3), 0.5, 0.5, 0.25, int64(-3), uint8(4), false, true, true, 0.05)
	f.Add(uint8(2), uint8(1), 0.75, 0.3, 0.6, int64(42), uint8(3), true, true, true, 0.2)
	// A 3-core budget below the lead application's 4 threads.
	f.Add(uint8(3), uint8(2), 1.0, 1.0, 0.75, int64(5), uint8(6), false, false, true, 0.01)
	// Rejected: one core cannot host any application.
	f.Add(uint8(0), uint8(0), 1.0, 1.0, 0.0, int64(1), uint8(1), false, false, false, 0.0)
	f.Fuzz(func(t *testing.T, rows, cols uint8, years, window, dark float64, mixSeed int64, mixApps uint8, vaa, hci, turbo bool, noise float64) {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = 1+int(rows%4), 1+int(cols%4)
		cfg.Years = math.Min(years, 1)
		cfg.WindowSeconds = math.Min(window, 1)
		cfg.DarkFraction = dark
		cfg.MixSeed = mixSeed
		cfg.MixApps = int(mixApps)
		if hci {
			cfg.AgingModel = "nbti+hci"
		}
		cfg.TurboBoost = turbo
		cfg.SensorNoiseSigma = noise
		pol := PolicyHayat
		if vaa {
			pol = PolicyVAA
		}
		if cfg.Validate() != nil {
			return
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("accepted config %+v: NewSystem: %v", cfg, err)
		}
		chip, err := sys.NewChip(mixSeed)
		if err != nil {
			t.Fatalf("accepted config %+v: NewChip: %v", cfg, err)
		}
		r, err := chip.RunLifetime(pol)
		if err != nil {
			t.Fatalf("accepted config %+v: RunLifetime(%v): %v", cfg, pol, err)
		}
		res := r.res
		// JSON has no NaN or infinity, so encoding fails on any
		// non-finite float in the Result.
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("config %+v: Result does not encode: %v", cfg, err)
		}
		for i, h := range res.FinalHealth {
			if !(h > 0 && h <= 1) {
				t.Fatalf("config %+v: FinalHealth[%d] = %v outside (0, 1]", cfg, i, h)
			}
		}
		for i, temp := range res.FinalTemps {
			if temp < sys.Ambient() {
				t.Fatalf("config %+v: FinalTemps[%d] = %v K below ambient %v K", cfg, i, temp, sys.Ambient())
			}
		}
		if want := int(cfg.Years/cfg.EpochYears + 0.5); len(res.Records) != want {
			t.Fatalf("config %+v: %d records, want %d epochs", cfg, len(res.Records), want)
		}
		n := sys.Cores()
		maxOn := max(1, int(math.Floor(float64(n)*(1-cfg.DarkFraction))))
		prevAvg, prevMin := 1.0, 1.0
		for _, rec := range res.Records {
			if rec.AvgHealth > prevAvg || rec.MinHealth > prevMin {
				t.Fatalf("config %+v: epoch %d health rose: avg %v → %v, min %v → %v",
					cfg, rec.Epoch, prevAvg, rec.AvgHealth, prevMin, rec.MinHealth)
			}
			prevAvg, prevMin = rec.AvgHealth, rec.MinHealth
			if rec.Mapped > maxOn {
				t.Fatalf("config %+v: epoch %d mapped %d threads on %d cores at dark fraction %v (at most %d)",
					cfg, rec.Epoch, rec.Mapped, n, cfg.DarkFraction, maxOn)
			}
			if rec.PeakTemp < rec.AvgTemp {
				t.Fatalf("config %+v: epoch %d peak %v K below average %v K", cfg, rec.Epoch, rec.PeakTemp, rec.AvgTemp)
			}
		}
	})
}
