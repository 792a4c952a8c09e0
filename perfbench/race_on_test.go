//go:build race

package main

// raceEnabled reports whether the tests run under the race detector,
// whose runtime takes most of a CPU profile's samples.
const raceEnabled = true
