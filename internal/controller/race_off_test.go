//go:build !race

package controller

const raceDetector = false
