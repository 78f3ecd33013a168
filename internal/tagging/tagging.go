// Package tagging models APPLE's flow-tagging scheme (§V-B) for the TCAM
// accounting that Fig 10 reports: how many physical-switch TCAM entries the
// tagged data plane needs versus the no-tagging baseline where every
// switch on a flow's path(s) re-classifies the flow. The tag values
// themselves are the controller's: a host ID is fixed per hosting switch
// when the controller is built, and sub-class IDs per class when it is
// admitted.
//
// CountTCAM counts a host-match row only at a switch where some sub-class
// processes, as Fig 10 does. The controller installs one on every hosting
// switch from the start, so its tables can hold more host-match rows than
// the figure counts, at switches that process nothing.
package tagging

import (
	"errors"
	"fmt"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/topology"
)

// ClassSpec couples a traffic class with its data-plane identity: the
// header prefix that matches its flows, the sub-classes derived from the
// Optimization Engine's distribution, and any additional equal-cost paths
// the class's flows ride (data-center multipath, §IX-C: "traffic exploits
// multi-paths in data center networks").
type ClassSpec struct {
	Class core.Class
	// Prefix matches the class's flows (e.g. srcIP 10.1.1.0/24).
	Prefix flowtable.Prefix
	// Subclasses is the output of core.Subclasses for this class.
	Subclasses []core.Subclass
	// AltPaths are further ECMP paths between the same endpoints; nil for
	// single-path classes.
	AltPaths [][]topology.NodeID
}

// Validate checks the spec.
func (cs ClassSpec) Validate() error {
	if len(cs.Subclasses) == 0 {
		return fmt.Errorf("tagging: class %d has no sub-classes", cs.Class.ID)
	}
	if len(cs.Subclasses) > int(flowtable.MaxSubTag)+1 {
		return fmt.Errorf("tagging: class %d has %d sub-classes, tag field fits %d",
			cs.Class.ID, len(cs.Subclasses), flowtable.MaxSubTag+1)
	}
	total := 0.0
	for _, s := range cs.Subclasses {
		total += s.Portion
		for _, h := range s.Hops {
			if h < 0 || h >= len(cs.Class.Path) {
				return fmt.Errorf("tagging: class %d sub-class hop %d out of path", cs.Class.ID, h)
			}
		}
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("tagging: class %d sub-class portions sum to %v", cs.Class.ID, total)
	}
	return nil
}

// Usage is the Fig 10 metric for one evaluation run.
type Usage struct {
	// Tagged is the total physical-switch TCAM entries with the tagging
	// scheme: per-class classification rules at the ingress only, plus
	// shared host-match and pass-by rules.
	Tagged int
	// Untagged is the baseline: every switch on every path of a class
	// carries that class's full sub-class classification rules, once per
	// distinguishable processing phase (progress through the chain must
	// be encoded in extra per-in-port rules when there is no tag to carry
	// it — the SIMPLE-style blow-up the paper's §I criticizes).
	Untagged int
	// PerSwitchTagged breaks the tagged total down by switch.
	PerSwitchTagged map[topology.NodeID]int
}

// Ratio returns Untagged/Tagged — the reduction factor the paper reports
// as "at least 4X for all three topologies".
func (u Usage) Ratio() float64 {
	if u.Tagged == 0 {
		return 0
	}
	return float64(u.Untagged) / float64(u.Tagged)
}

// CountTCAM computes TCAM usage with and without tagging. splitBits is
// the sub-class quantization granularity (the address-split method of
// §V-A); more bits track portions more precisely but may need more rules
// per sub-class.
func CountTCAM(classes []ClassSpec, splitBits int) (Usage, error) {
	if len(classes) == 0 {
		return Usage{}, errors.New("tagging: no classes")
	}
	u := Usage{PerSwitchTagged: make(map[topology.NodeID]int)}
	// Shared rules: one host-match entry per switch that fronts an APPLE
	// host processing some sub-class, one pass-by entry per switch that
	// sees tagged traffic.
	processingSwitches := make(map[topology.NodeID]bool)
	touchedSwitches := make(map[topology.NodeID]bool)
	for _, cs := range classes {
		if err := cs.Validate(); err != nil {
			return Usage{}, err
		}
		blocks, err := flowtable.SplitPortions(core.SubclassPortions(cs.Subclasses), splitBits)
		if err != nil {
			return Usage{}, fmt.Errorf("tagging: class %d: %w", cs.Class.ID, err)
		}
		// Classification rules: installed at the ingress switch only
		// (Table III rows 2-3; "the classification rules are just
		// installed at the corresponding ingress switch for each
		// sub-class").
		rules := 0
		for _, bs := range blocks {
			rules += len(bs)
		}
		ingress := cs.Class.Path[0]
		u.Tagged += rules
		u.PerSwitchTagged[ingress] += rules
		// The union of switches the class's flows can visit, over the
		// primary and all alternate paths.
		union := make(map[topology.NodeID]bool, len(cs.Class.Path))
		for _, v := range cs.Class.Path {
			union[v] = true
			touchedSwitches[v] = true
		}
		for _, alt := range cs.AltPaths {
			for _, v := range alt {
				union[v] = true
				touchedSwitches[v] = true
			}
		}
		for _, s := range cs.Subclasses {
			for _, h := range s.Hops {
				processingSwitches[cs.Class.Path[h]] = true
			}
		}
		// Without tagging, the same classification rules repeat at every
		// switch the class can visit — and because a packet's progress
		// through the chain cannot be read from a tag, each chain stage
		// adds one more in-port-disambiguated copy of the rules (the
		// switch must forward the same 5-tuple differently before and
		// after each NF).
		u.Untagged += rules * (len(union) + len(cs.Class.Chain))
	}
	for v := range processingSwitches {
		u.Tagged++ // host-match rule (Table III row 1)
		u.PerSwitchTagged[v]++
	}
	for v := range touchedSwitches {
		u.Tagged++ // pass-by rule (Table III row 4)
		u.PerSwitchTagged[v]++
	}
	return u, nil
}
