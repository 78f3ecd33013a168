// Package vnf models virtual network function instances: their datasheet
// capacity, the loss behaviour a ClickOS passive monitor exhibits when
// driven past capacity (Fig 6), and the hysteresis-based overload detector
// that drives fast failover (§VII-B, Fig 9: overloaded above 8.5 Kpps,
// rolled back at or below 4 Kpps for the measured monitor).
package vnf

import (
	"errors"
	"fmt"
	"math"

	"github.com/apple-nfv/apple/internal/policy"
)

// ID names a VNF instance, unique within a deployment (e.g.
// "firewall-2@edge-7").
type ID string

// State is the lifecycle state of an instance.
type State int

// Instance lifecycle states.
const (
	StateBooting State = iota + 1
	StateRunning
	StateStopped
	// StateFailed marks an instance that died rather than being cancelled:
	// an injected boot failure or a host crash. Like Stopped it is
	// terminal, but it distinguishes involuntary death in counters and
	// invariant checks.
	StateFailed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateBooting:
		return "booting"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Instance is one running VNF.
type Instance struct {
	id      ID
	spec    policy.Spec
	state   State
	offered float64  // offered load, Mbps
	det     Detector // DefaultDetector for spec's capacity
}

// New creates an instance of the given NF type in the Booting state.
func New(id ID, nf policy.NF) (*Instance, error) {
	if id == "" {
		return nil, errors.New("vnf: empty instance ID")
	}
	spec, err := policy.SpecOf(nf)
	if err != nil {
		return nil, fmt.Errorf("vnf: %w", err)
	}
	return &Instance{id: id, spec: spec, state: StateBooting, det: DefaultDetector(spec.CapacityMbps)}, nil
}

// ID returns the instance name.
func (i *Instance) ID() ID { return i.id }

// NF returns the network function type.
func (i *Instance) NF() policy.NF { return i.spec.NF }

// Spec returns the datasheet row.
func (i *Instance) Spec() policy.Spec { return i.spec }

// State returns the lifecycle state.
func (i *Instance) State() State { return i.state }

// SetState transitions the lifecycle state. Valid transitions are
// Booting→Running, Booting→Stopped, Booting→Failed, Running→Stopped, and
// Running→Failed; Stopped and Failed are terminal.
func (i *Instance) SetState(s State) error {
	switch {
	case i.state == StateBooting && (s == StateRunning || s == StateStopped || s == StateFailed):
	case i.state == StateRunning && (s == StateStopped || s == StateFailed):
	default:
		return fmt.Errorf("vnf: invalid transition %v → %v for %s", i.state, s, i.id)
	}
	i.state = s
	return nil
}

// Reconfigure repurposes a running or booting ClickOS instance into a
// different ClickOS NF type — the cheap path the prototype uses to avoid
// the multi-second orchestrated boot (§VIII-D). Full-VM NFs cannot be
// reconfigured this way. The instance's detector starts over with the new
// NF's thresholds.
func (i *Instance) Reconfigure(nf policy.NF) error {
	if !i.spec.ClickOS {
		return fmt.Errorf("vnf: %s is a full VM (%v); only ClickOS instances reconfigure", i.id, i.spec.NF)
	}
	spec, err := policy.SpecOf(nf)
	if err != nil {
		return fmt.Errorf("vnf: %w", err)
	}
	if !spec.ClickOS {
		return fmt.Errorf("vnf: cannot reconfigure ClickOS instance into full-VM NF %v", nf)
	}
	i.spec = spec
	i.det = DefaultDetector(spec.CapacityMbps)
	return nil
}

// SetOffered records the instantaneous offered load in Mbps.
func (i *Instance) SetOffered(mbps float64) error {
	if mbps < 0 || math.IsNaN(mbps) || math.IsInf(mbps, 0) {
		return fmt.Errorf("vnf: bad offered load %v", mbps)
	}
	i.offered = mbps
	return nil
}

// Offered returns the current offered load in Mbps.
func (i *Instance) Offered() float64 { return i.offered }

// Detector returns the instance's overload detector.
func (i *Instance) Detector() *Detector { return &i.det }

// LossRate returns the fraction of offered traffic dropped — the fluid
// version of the Fig 6 curve: zero below the capacity knee, then rising as
// 1 − capacity/offered. A non-running instance loses everything offered.
func (i *Instance) LossRate() float64 {
	if i.offered == 0 {
		return 0
	}
	if i.state != StateRunning {
		return 1
	}
	if i.offered <= i.spec.CapacityMbps {
		return 0
	}
	return 1 - i.spec.CapacityMbps/i.offered
}

// Detector is the hysteresis overload detector from §VII-B: an instance is
// declared overloaded when its input rate exceeds High, and returns to
// normal only when the rate drops to Low or below. The gap prevents
// oscillation while traffic hovers near the threshold.
type Detector struct {
	high, low  float64
	overloaded bool
}

// NewDetector builds a detector with the given thresholds (same unit as
// the rates it will observe). Low must be below High.
func NewDetector(high, low float64) (*Detector, error) {
	if high <= 0 || low < 0 || low >= high {
		return nil, fmt.Errorf("vnf: bad detector thresholds high=%v low=%v", high, low)
	}
	return &Detector{high: high, low: low}, nil
}

// DefaultDetector returns the detector every instance carries: its
// overload threshold is the instance's full capacity, because in the fluid
// model packets are only dropped beyond capacity, and the Optimization
// Engine legitimately packs planned load right up to it (Eq. 5 is an
// equality at the optimum). The prototype's measured thresholds sat below
// saturation only because its capacity estimate was conservative (§VII-B).
func DefaultDetector(capacityMbps float64) Detector {
	return Detector{high: capacityMbps, low: capacityMbps * 0.5}
}

// Observe feeds a rate sample and returns the (possibly new) overload
// verdict. The event transitions are exactly Fig 9's: a rise above High
// flips to overloaded immediately; only a fall to Low or below rolls back.
func (d *Detector) Observe(rate float64) bool {
	switch {
	case rate > d.high:
		d.overloaded = true
	case rate <= d.low:
		d.overloaded = false
	}
	return d.overloaded
}

// Overloaded returns the current verdict.
func (d *Detector) Overloaded() bool { return d.overloaded }

// Thresholds returns (high, low).
func (d *Detector) Thresholds() (high, low float64) { return d.high, d.low }
