package scenario

// The sweep tests live in package scenario_test, because they run their
// points through experiment.RunStudy, which imports this package.
var (
	SmallSpec = smallSpec
	StripHost = stripHost
)
