package aging

// The external tests (package aging_test) check path sets from packages
// that import this one, such as the netlist flow's.
var (
	CheckTableMatchesReference = checkTableMatchesReference
	OtherParams                = otherParams
)
