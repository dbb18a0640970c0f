//go:build !race

package cluster

// raceEnabled reports a race-detector build, whose instrumentation
// allocates: allocation-count bounds hold only without it.
const raceEnabled = false
