package persist

import (
	"strings"
	"testing"
)

// FuzzLoadResult likewise for lifetime results.
func FuzzLoadResult(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"version":1,"policy":"Hayat","initial_fmax_hz":[1],"final_fmax_hz":[1],"final_health":[1],"epochs":[{"epoch":0,"years":0.25}]}`)
	f.Add(`[1,2,3]`)
	f.Fuzz(func(t *testing.T, data string) {
		rec, err := LoadResult(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("accepted result fails Validate: %v", err)
		}
	})
}
