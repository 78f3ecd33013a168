//go:build race

package core_test

// raceDetector reports whether the test binary was built with -race, under
// which the byte ceilings do not hold: the detector allocates too.
const raceDetector = true
