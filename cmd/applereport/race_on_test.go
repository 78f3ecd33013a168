//go:build race

package main

// raceDetector reports whether the test binary was built with -race, under
// which the full report takes about ten times as long and the tests that
// run it skip: the report's experiments share no state across goroutines
// beyond what their own packages' race-tested suites already cover.
const raceDetector = true
