package aging

// This file holds the aging models' pointwise evaluation: the reference
// that every aging-table fill must equal bit for bit, and the per-point
// probes the model tests use.

// pointwiseModel is a FactorModel together with its pointwise reference.
type pointwiseModel interface {
	FactorModel
	FreqFactor(T, duty, years float64) float64
}

// FreqFactor returns health after aging: f_max(y)/f_max(0) =
// unagedDelay/agedDelay ∈ (0, 1].
func (ca *CoreAging) FreqFactor(T, duty, years float64) float64 {
	return ca.unaged / ca.AgedDelay(T, duty, years)
}

// UnagedDelay returns the slowest path's year-0 delay in seconds.
func (c *CompositeCoreAging) UnagedDelay() float64 { return c.nbti.UnagedDelay() }

// AgedDelay returns the slowest path's delay after combined NBTI + HCI
// stress. HCI affects every element uniformly (NMOS stress is not
// topology-weighted the way PMOS duty exposure is).
func (c *CompositeCoreAging) AgedDelay(T, duty, years float64) float64 {
	hciShift := c.hci.DeltaVth(T, years, duty, c.hci.RefFreq)
	max := 0.0
	for i := range c.nbti.paths.Paths {
		p := &c.nbti.paths.Paths[i]
		sum := 0.0
		for _, e := range p.Elements {
			effDuty := duty * e.DutyFactor * e.Cell.PMOSDutyWeight
			nbtiShift := c.nbti.params.DeltaVth(T, years, effDuty)
			sum += e.Cell.Delay * (1 + e.Cell.VthSensitivity*(nbtiShift+hciShift))
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// FreqFactor returns health under the combined mechanisms.
func (c *CompositeCoreAging) FreqFactor(T, duty, years float64) float64 {
	return c.UnagedDelay() / c.AgedDelay(T, duty, years)
}

// NBTIOnly returns the underlying NBTI-only estimator (the paper's model).
func (c *CompositeCoreAging) NBTIOnly() *CoreAging { return c.nbti }
