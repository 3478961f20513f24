//go:build race

package fraz_test

// raceEnabled reports a build with the race detector.
const raceEnabled = true
