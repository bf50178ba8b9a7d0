package numeric

// Fill sets every element of v to c and returns v.
func Fill(v []float64, c float64) []float64 {
	for i := range v {
		v[i] = c
	}
	return v
}

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// MinMax returns the minimum and maximum of v. It panics on empty input.
func MinMax(v []float64) (min, max float64) {
	if len(v) == 0 {
		panic("numeric: MinMax of empty slice")
	}
	min, max = v[0], v[0]
	for _, x := range v[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}
