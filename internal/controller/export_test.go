package controller

// Counts and views the replay tests in package controller_test assert on;
// they build their scenarios with internal/experiments, which this
// package's own tests cannot import.

import "github.com/apple-nfv/apple/internal/topology"

// RaceDetector is raceDetector, for the external tests.
const RaceDetector = raceDetector

// PooledInstances reports how many instances the controller's pools hold.
func (c *Controller) PooledInstances() int { return len(c.pooledByID()) }

// GlobalTags returns, per hosting switch, the global sub-class tags the
// installed header-rewriting sub-classes hold there, ascending.
func (c *Controller) GlobalTags() map[topology.NodeID][]uint8 {
	return c.Snapshot().GlobalTags
}

// Tag returns sub-class s's data-plane tag.
func (a *Assignment) Tag(s int) uint8 { return a.subs[s].tag }
