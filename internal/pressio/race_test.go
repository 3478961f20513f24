//go:build race

package pressio

// raceEnabled reports a build with the race detector.
const raceEnabled = true
