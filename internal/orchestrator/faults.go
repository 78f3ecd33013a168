// Fault injection for the Resource Orchestrator. Real OpenStack/ODL
// stacks fail in exactly the places the paper's timing model glosses
// over: VM boots abort mid-pipeline, reconfigurations time out, cancel
// RPCs are lost, and whole hosts reboot. A FaultPlan scripts those
// outcomes onto the simulation clock so the Dynamic Handler's
// transactional apply/rollback discipline can be exercised
// deterministically.
package orchestrator

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/apple-nfv/apple/internal/topology"
)

// Sentinel errors surfaced by fault-injected lifecycle operations.
// Callers classify outcomes with errors.Is.
var (
	// ErrBootFailed reports an orchestrated boot that died mid-pipeline
	// (Fig 5 steps 1–7); the instance is gone and its resources freed.
	ErrBootFailed = errors.New("orchestrator: boot failed")
	// ErrReconfigureFailed reports a ClickOS reconfiguration that did not
	// take; the instance reverts to its previous NF type.
	ErrReconfigureFailed = errors.New("orchestrator: reconfigure failed")
	// ErrCancelFailed reports a lost cancel RPC: the instance keeps
	// running and holding resources. Callers should retry.
	ErrCancelFailed = errors.New("orchestrator: cancel failed")
	// ErrAborted reports a lifecycle callback whose instance was
	// cancelled or crashed before the operation completed.
	ErrAborted = errors.New("orchestrator: operation aborted")
	// ErrUnknownInstance reports an operation on an instance the
	// orchestrator no longer manages (already cancelled, or lost in a
	// host crash).
	ErrUnknownInstance = errors.New("orchestrator: unknown instance")
)

// Counter names recorded by the orchestrator (metrics.Counters keys).
const (
	CtrLaunches         = "launches"
	CtrBoots            = "boots"
	CtrBootFailures     = "boot_failures"
	CtrBootTimeouts     = "boot_timeouts"
	CtrAborts           = "aborts"
	CtrReconfigures     = "reconfigures"
	CtrReconfFailures   = "reconfigure_failures"
	CtrCancels          = "cancels"
	CtrCancelFailures   = "cancel_failures"
	CtrHostCrashes      = "host_crashes"
	CtrCrashedInstances = "crashed_instances"
)

// DefaultBootTimeoutFactor stretches a timed-out boot: the orchestration
// pipeline stalls and retries internally, eventually completing late.
const DefaultBootTimeoutFactor = 3.0

// HostCrash scripts every host at a switch dying (and rebooting empty) at
// a virtual time.
type HostCrash struct {
	At     time.Duration
	Switch topology.NodeID
}

// FaultPlan describes which lifecycle operations fail. Probabilistic
// fields draw from a dedicated RNG (Seed) that is independent of the
// orchestrator's boot-time RNG, so a zero plan perturbs nothing.
// Scripted fields name 1-based operation ordinals (the n-th Launch, the
// n-th Cancel, …) that fail regardless of probability — the tool for
// byte-reproducible regression tests.
type FaultPlan struct {
	Seed int64

	// BootFailProb is the chance an orchestrated boot dies mid-pipeline.
	BootFailProb float64
	// BootTimeoutProb is the chance a boot stalls and completes late by
	// BootTimeoutFactor (DefaultBootTimeoutFactor when zero).
	BootTimeoutProb   float64
	BootTimeoutFactor float64
	// ReconfigureFailProb is the chance a ClickOS reconfiguration fails
	// and reverts.
	ReconfigureFailProb float64
	// CancelFailProb is the chance a cancel RPC is lost.
	CancelFailProb float64

	// Scripted failure ordinals (1-based, per operation type).
	BootFailOn        []int
	BootTimeoutOn     []int
	ReconfigureFailOn []int
	CancelFailOn      []int

	// Crashes schedules host crashes on the simulation clock.
	Crashes []HostCrash
}

// validate checks the plan's fields are usable.
func (p FaultPlan) validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"BootFailProb", p.BootFailProb},
		{"BootTimeoutProb", p.BootTimeoutProb},
		{"ReconfigureFailProb", p.ReconfigureFailProb},
		{"CancelFailProb", p.CancelFailProb},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("orchestrator: %s=%v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.BootTimeoutFactor < 0 {
		return fmt.Errorf("orchestrator: negative BootTimeoutFactor %v", p.BootTimeoutFactor)
	}
	for _, set := range [][]int{p.BootFailOn, p.BootTimeoutOn, p.ReconfigureFailOn, p.CancelFailOn} {
		for _, n := range set {
			if n < 1 {
				return fmt.Errorf("orchestrator: scripted ordinal %d is not 1-based", n)
			}
		}
	}
	for _, c := range p.Crashes {
		if c.At < 0 {
			return fmt.Errorf("orchestrator: crash at negative time %v", c.At)
		}
	}
	return nil
}

// faultState is the live injection machinery: the plan, its dedicated
// RNG, and per-operation ordinal counters.
type faultState struct {
	plan     FaultPlan
	rng      *rand.Rand
	launches int
	reconfs  int
	cancels  int
}

func newFaultState(p FaultPlan) *faultState {
	return &faultState{plan: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// fires decides whether operation ordinal n (1-based) fails: scripted
// ordinals always fire; otherwise the probability draw decides. The RNG
// is only consulted when prob > 0, so purely scripted plans stay
// independent of draw order.
func (f *faultState) fires(prob float64, script []int, n int) bool {
	for _, s := range script {
		if s == n {
			return true
		}
	}
	if prob <= 0 {
		return false
	}
	return f.rng.Float64() < prob
}

func (f *faultState) timeoutFactor() float64 {
	if f.plan.BootTimeoutFactor > 0 {
		return f.plan.BootTimeoutFactor
	}
	return DefaultBootTimeoutFactor
}
