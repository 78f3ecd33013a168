//go:build race

package controller

// raceDetector reports whether the test binary was built with -race, under
// which the replay tests repeat less — the detector multiplies their cost
// several times over and adds nothing to a determinism check — and the
// allocation counts do not hold: the detector allocates too.
const raceDetector = true
