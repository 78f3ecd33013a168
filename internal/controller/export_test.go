package controller

// Counts and views the replay tests in package controller_test assert on;
// they build their scenarios with internal/experiments, which this
// package's own tests cannot import.

import "github.com/apple-nfv/apple/internal/topology"

// RaceDetector is raceDetector, for the external tests.
const RaceDetector = raceDetector

// DetectorCount reports how many instances the handler holds a detector
// for.
func (d *DynamicHandler) DetectorCount() int { return len(d.detectors) }

// PooledInstances reports how many instances the controller's pools hold.
func (c *Controller) PooledInstances() int {
	n := 0
	for _, byNF := range c.instPool {
		for _, insts := range byNF {
			n += len(insts)
		}
	}
	return n
}

// GlobalTags returns, per hosting switch, the global sub-class tags the
// installed header-rewriting sub-classes hold there, ascending.
func (c *Controller) GlobalTags() map[topology.NodeID][]uint8 {
	return c.Snapshot().GlobalTags
}

// Tag returns sub-class s's data-plane tag.
func (a *Assignment) Tag(s int) uint8 { return a.subs[s].tag }
