//go:build race

package controller_test

// raceDetector reports whether the test binary was built with -race, under
// which the replay tests repeat less: the detector multiplies their cost
// several times over and adds nothing to a determinism check.
const raceDetector = true
