package trace

// Per-flow audit trail: given a journal, reconstruct everything that
// happened to one traffic class — the policy admission, the LP solve
// that placed it, its instance assignments and tag allocations, the
// rules installed for it, and every failover transition — in virtual-
// time order. This is the journal's reason to exist: after a churn
// replay, ReconstructFlow answers "show me exactly how class 3 failed
// over and came back".

import (
	"fmt"
	"sort"
	"strings"
)

// FlowAudit is the reconstructed history of one traffic class.
type FlowAudit struct {
	// Class is the audited traffic class.
	Class int64
	// Admit is the class's flow.admit event.
	Admit Event
	// Placements are the flow.place events: which instance serves each
	// (sub-class, chain position), at which switch.
	Placements []Event
	// Tags are the flow.tag events assigning data-plane tags.
	Tags []Event
	// Installs are the class's flow.emit and flow.verify events and the
	// flow.apply events of the pipeline run that emitted it (table
	// installs carry no class; a batch's classes share them) — the
	// class's installed path taking effect.
	Installs []Event
	// Failovers are the failover.* events of the class, in order:
	// spawn, repin, activate/stale/unwind, rollback.
	Failovers []Event
	// Lifecycle are the vnf.* events of every instance that ever served
	// the class (base placements and failover spawns).
	Lifecycle []Event
	// Solves are the lp.* events of the journal: the optimization runs
	// whose placements the class's assignment came from.
	Solves []Event
}

// ReconstructFlow rebuilds the audit trail of one class from a journal.
// It fails if the journal has no flow.admit event for the class — either
// the class was never installed or the admission was evicted from the
// ring.
func ReconstructFlow(events []Event, class int64) (*FlowAudit, error) {
	a := &FlowAudit{Class: class}
	insts := make(map[string]bool)
	admitted := false
	// inRun holds from the class's flow.emit to the end of the
	// flow.emit/flow.apply block of the same pipeline run.
	inRun := false
	for _, ev := range events {
		if ev.Kind != KindFlowEmit && ev.Kind != KindFlowApply {
			inRun = false
		}
		switch {
		case ev.Kind == KindFlowAdmit && ev.Class == class:
			if !admitted {
				a.Admit = ev
				admitted = true
			}
		case ev.Kind == KindFlowApply:
			if inRun {
				a.Installs = append(a.Installs, ev)
			}
		case ev.Class == class && strings.HasPrefix(string(ev.Kind), "flow."):
			switch ev.Kind {
			case KindFlowPlace:
				a.Placements = append(a.Placements, ev)
				insts[ev.Inst] = true
			case KindFlowTag:
				a.Tags = append(a.Tags, ev)
			case KindFlowEmit:
				a.Installs = append(a.Installs, ev)
				inRun = true
			case KindFlowVerify:
				a.Installs = append(a.Installs, ev)
			}
		case ev.Class == class && strings.HasPrefix(string(ev.Kind), "failover."):
			a.Failovers = append(a.Failovers, ev)
			if ev.Inst != "" {
				insts[ev.Inst] = true
			}
		case strings.HasPrefix(string(ev.Kind), "lp."):
			a.Solves = append(a.Solves, ev)
		}
	}
	if !admitted {
		return nil, fmt.Errorf("trace: no flow.admit event for class %d in journal", class)
	}
	for _, ev := range events {
		if strings.HasPrefix(string(ev.Kind), "vnf.") && insts[ev.Inst] {
			a.Lifecycle = append(a.Lifecycle, ev)
		}
	}
	return a, nil
}

// FailedOver reports whether the class ever entered failover.
func (a *FlowAudit) FailedOver() bool { return len(a.Failovers) > 0 }

// Instances lists every instance that served the class, sorted.
func (a *FlowAudit) Instances() []string {
	set := make(map[string]bool)
	for _, ev := range a.Placements {
		set[ev.Inst] = true
	}
	for _, ev := range a.Failovers {
		if ev.Inst != "" {
			set[ev.Inst] = true
		}
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Timeline returns every event of the audit merged back into one
// virtual-time-ordered slice (sequence order; virtual time never
// disagrees with it).
func (a *FlowAudit) Timeline() []Event {
	out := make([]Event, 0,
		1+len(a.Placements)+len(a.Tags)+len(a.Installs)+len(a.Failovers)+len(a.Lifecycle)+len(a.Solves))
	out = append(out, a.Admit)
	out = append(out, a.Placements...)
	out = append(out, a.Tags...)
	out = append(out, a.Installs...)
	out = append(out, a.Failovers...)
	out = append(out, a.Lifecycle...)
	out = append(out, a.Solves...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// String renders a one-line-per-event summary of the audit trail.
func (a *FlowAudit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "class %d: %d placements, %d tags, %d installs, %d failover transitions\n",
		a.Class, len(a.Placements), len(a.Tags), len(a.Installs), len(a.Failovers))
	for _, ev := range a.Timeline() {
		fmt.Fprintf(&b, "  t=%-12v %-22s", ev.At, ev.Kind)
		if ev.Phase != "" {
			fmt.Fprintf(&b, " %s", ev.Phase)
		}
		if ev.Sub != NoID {
			fmt.Fprintf(&b, " sub=%d", ev.Sub)
		}
		if ev.Pos != NoID {
			fmt.Fprintf(&b, " pos=%d", ev.Pos)
		}
		if ev.Node != NoID {
			fmt.Fprintf(&b, " node=%d", ev.Node)
		}
		if ev.Inst != "" {
			fmt.Fprintf(&b, " inst=%s", ev.Inst)
		}
		if ev.Val != 0 {
			fmt.Fprintf(&b, " val=%d", ev.Val)
		}
		if ev.Err != "" {
			fmt.Fprintf(&b, " err=%q", ev.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
