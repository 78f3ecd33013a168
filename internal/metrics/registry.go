package metrics

// Registry aggregates every counter family an experiment touches into
// one machine-readable snapshot — the unified export the scattered
// String() log lines never provided. An experiment registers its
// component counter sets (orchestrator and handler Counters, the
// process-wide LP and FlowSetup families, ad-hoc gauges) under stable
// names, then writes one JSON artifact per run (churn_metrics.json is
// one). RegistrySnapshot is a plain typed struct, so artifacts
// unmarshal back losslessly — the round-trip `make trace-smoke` checks.

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Registry is a named collection of counter families. It is safe for
// concurrent use; Snapshot may run while the registered counters are
// still being written (each family's own synchronization makes the read
// atomic per family).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counters          // guarded by mu
	lp       map[string]*LPCounters        // guarded by mu
	flow     map[string]*FlowSetupCounters // guarded by mu
	gauges   map[string]func() float64     // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counters),
		lp:       make(map[string]*LPCounters),
		flow:     make(map[string]*FlowSetupCounters),
		gauges:   make(map[string]func() float64),
	}
}

// register guards the shared name rules: non-empty, unique across all
// families. Callers hold r.mu.
func (r *Registry) registerLocked(name string, kind string) error {
	if name == "" {
		return fmt.Errorf("metrics: empty %s name", kind)
	}
	_, c := r.counters[name]
	_, l := r.lp[name]
	_, f := r.flow[name]
	_, g := r.gauges[name]
	if c || l || f || g {
		return fmt.Errorf("metrics: duplicate registry name %q", name)
	}
	return nil
}

// AddCounters registers a named Counters set.
func (r *Registry) AddCounters(name string, c *Counters) error {
	if c == nil {
		return fmt.Errorf("metrics: nil counters %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.registerLocked(name, "counters"); err != nil {
		return err
	}
	r.counters[name] = c
	return nil
}

// AddLP registers a named LP counter family (usually the process-wide
// &LP).
func (r *Registry) AddLP(name string, c *LPCounters) error {
	if c == nil {
		return fmt.Errorf("metrics: nil LP counters %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.registerLocked(name, "LP counters"); err != nil {
		return err
	}
	r.lp[name] = c
	return nil
}

// AddFlowSetup registers a named flow-setup counter family (usually the
// process-wide &FlowSetup).
func (r *Registry) AddFlowSetup(name string, c *FlowSetupCounters) error {
	if c == nil {
		return fmt.Errorf("metrics: nil flow-setup counters %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.registerLocked(name, "flow-setup counters"); err != nil {
		return err
	}
	r.flow[name] = c
	return nil
}

// AddGauge registers a named gauge callback, read at snapshot time.
func (r *Registry) AddGauge(name string, fn func() float64) error {
	if fn == nil {
		return fmt.Errorf("metrics: nil gauge %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.registerLocked(name, "gauge"); err != nil {
		return err
	}
	r.gauges[name] = fn
	return nil
}

// RegistrySnapshot is the point-in-time value of every registered
// family. It marshals to the per-run JSON artifact and unmarshals back
// to the same typed values.
type RegistrySnapshot struct {
	Counters  map[string]map[string]uint64 `json:"counters,omitempty"`
	LP        map[string]LPSnapshot        `json:"lp,omitempty"`
	FlowSetup map[string]FlowSetupSnapshot `json:"flow_setup,omitempty"`
	Gauges    map[string]float64           `json:"gauges,omitempty"`
}

// Snapshot reads every registered family. Gauge callbacks run after the
// registry lock is released — a gauge is user code and may take its own
// locks.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	counters := make(map[string]*Counters, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	lps := make(map[string]*LPCounters, len(r.lp))
	for k, v := range r.lp {
		lps[k] = v
	}
	flows := make(map[string]*FlowSetupCounters, len(r.flow))
	for k, v := range r.flow {
		flows[k] = v
	}
	gauges := make(map[string]func() float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	r.mu.Unlock()

	snap := RegistrySnapshot{}
	if len(counters) > 0 {
		snap.Counters = make(map[string]map[string]uint64, len(counters))
		for name, c := range counters {
			snap.Counters[name] = c.Snapshot()
		}
	}
	if len(lps) > 0 {
		snap.LP = make(map[string]LPSnapshot, len(lps))
		for name, c := range lps {
			snap.LP[name] = c.Snapshot()
		}
	}
	if len(flows) > 0 {
		snap.FlowSetup = make(map[string]FlowSetupSnapshot, len(flows))
		for name, c := range flows {
			snap.FlowSetup[name] = c.Snapshot()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(gauges))
		for name, fn := range gauges {
			snap.Gauges[name] = fn()
		}
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON. Map keys marshal in
// sorted order, so the artifact is deterministic for deterministic
// counter values.
func (s RegistrySnapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}
