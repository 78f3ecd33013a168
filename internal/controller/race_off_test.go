//go:build !race

package controller_test

const raceDetector = false
