package aging_test

import (
	"fmt"
	"testing"

	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/gates"
	"github.com/kit-ces/hayat/internal/netlist"
)

// Every entry of a built table, and the pointwise FreqFactor, must be
// bit for bit the pointwise evaluation as it was before the table fill
// hoisted Eq. 7 and pruned paths, for both aging models. The path sets
// are 48 generated cores, every third under the paper's printed
// constants, and the netlist-derived core that cmd/agingtables -netlist
// builds, whose 20 paths come from eight modules with scaled duty
// factors, under both constant sets. -short keeps three generated cores
// and the netlist core.
func TestTableMatchesPointwiseReference(t *testing.T) {
	seeds := 48
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			params := aging.DefaultParams()
			if seed%3 == 0 {
				params = aging.OtherParams()
			}
			aging.CheckTableMatchesReference(t, params, gates.Generate(gates.DefaultGenerateConfig(), seed))
		})
	}
	proc, err := netlist.Synthesize(netlist.Alpha21264Like(), gates.DefaultGenerateConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		params aging.Params
	}{{"netlist", aging.DefaultParams()}, {"netlist-printed", aging.OtherParams()}} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			aging.CheckTableMatchesReference(t, c.params, proc.Paths)
		})
	}
}
