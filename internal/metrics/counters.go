package metrics

import (
	"fmt"
	"strings"
	"sync"
)

// Counters is an ordered set of named monotonic counters. The failure
// model uses one per component (orchestrator lifecycle outcomes, Dynamic
// Handler spawn/rollback activity) so experiment reports can print a
// stable, deterministic line of what happened during a replay.
//
// Names keep their first-increment order, which makes String output
// reproducible without sorting surprises when new counters appear.
//
// Counters is safe for concurrent use. The writers live on the
// simulation loop (DynamicHandler callbacks, orchestrator lifecycle
// events), but readers — registry snapshots, experiment reporting, the
// profiling endpoint — may run on other goroutines, so the map and its
// order slice are mutex-guarded rather than loop-confined.
type Counters struct {
	mu    sync.Mutex
	order []string          // guarded by mu
	vals  map[string]uint64 // guarded by mu
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{vals: make(map[string]uint64)}
}

// Inc adds one to the named counter, creating it at zero first if needed.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Add adds n to the named counter, creating it at zero first if needed.
func (c *Counters) Add(name string, n uint64) {
	c.mu.Lock()
	if _, ok := c.vals[name]; !ok {
		c.order = append(c.order, name)
	}
	c.vals[name] += n
	c.mu.Unlock()
}

// Get returns the named counter's value (zero if never incremented).
func (c *Counters) Get(name string) uint64 {
	c.mu.Lock()
	v := c.vals[name]
	c.mu.Unlock()
	return v
}

// Snapshot copies the current values.
func (c *Counters) Snapshot() map[string]uint64 {
	c.mu.Lock()
	out := make(map[string]uint64, len(c.vals))
	for k, v := range c.vals {
		out[k] = v
	}
	c.mu.Unlock()
	return out
}

// String renders "name=value" pairs in first-increment order.
func (c *Counters) String() string {
	c.mu.Lock()
	names := make([]string, len(c.order))
	copy(names, c.order)
	vals := make([]uint64, len(names))
	for i, name := range names {
		vals[i] = c.vals[name]
	}
	c.mu.Unlock()
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, vals[i])
	}
	return b.String()
}
