//go:build race

package lp_test

// raceEnabled reports whether this test binary was built with the race
// detector. The cross-check replays are sequential numerical work (~10x
// slower raced), so under the detector they cover the smaller circuits
// only and stay inside the package's timeout budget.
const raceEnabled = true
