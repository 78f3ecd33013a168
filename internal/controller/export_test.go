package controller

// Counts the replay tests in package controller_test assert on; they
// build their scenarios with internal/experiments, which this package's
// own tests cannot import.

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
