// Package shard implements regional controller sharding: one APPLE
// controller per topology region, a deterministic router that pins every
// traffic class to exactly one region, disjoint per-region host-tag
// windows, and an aggregation tier that merges per-shard journals and
// audits interference freedom across shard boundaries. It was built as
// the scale story for million-class topologies, when table publication
// and transaction capture cost O(installed state) and a region bounded
// that state; both are O(delta) now, and what the layer still provides
// is isolation — see DESIGN.md §10 for what remains to be measured.
package shard

import (
	"fmt"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/hashring"
	"github.com/apple-nfv/apple/internal/topology"
)

// Partition is the deterministic region map: a pure function of
// (region count, node ID) via the hashring's jump hash, so every device
// maps to exactly one region regardless of which process — or which
// shard — asks. The host-tag space is carved into equal disjoint windows,
// one per region, so tags handed out by different regional controllers
// can never collide on a shared data plane.
type Partition struct {
	regions int
	sharder *hashring.Sharder
}

// NewPartition builds the region map. The region count must be ≥ 1 and
// small enough that every region gets a non-empty host-tag window.
func NewPartition(regions int) (*Partition, error) {
	if regions < 1 {
		return nil, fmt.Errorf("shard: region count %d must be ≥1", regions)
	}
	if regions > int(flowtable.MaxHostTag) {
		return nil, fmt.Errorf("shard: %d regions cannot each get a host-tag window (space has %d tags)",
			regions, flowtable.MaxHostTag)
	}
	s, err := hashring.NewSharder(regions)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return &Partition{regions: regions, sharder: s}, nil
}

// Regions returns the region count.
func (p *Partition) Regions() int { return p.regions }

// Region maps a device to its region: jump consistent hash over the node
// ID, so growing the region count moves only ~1/(n+1) of the devices.
func (p *Partition) Region(v topology.NodeID) int {
	return p.sharder.Shard(uint64(v))
}

// Window returns region r's host-tag window [first, last], a disjoint
// ⌊MaxHostTag/regions⌋-tag slice of the 12-bit space. Windows start at
// tag 1 (0 is HostTagEmpty) and any remainder at the top stays unused.
func (p *Partition) Window(r int) (first, last uint16) {
	span := int(flowtable.MaxHostTag) / p.regions
	return uint16(1 + r*span), uint16(r*span + span)
}

// Owner pins a class to the region that will admit it: the lowest-ID
// region owning a hosting switch on the class's path. The choice is a
// pure function of the class and the host set — independent of shard
// count, dispatch order, and concurrency — which is what makes N-shard
// and 1-shard runs byte-identical. A class whose path crosses no hosting
// switch falls back to its ingress switch's region, whose controller
// rejects it with the same admission error a monolithic controller would.
func (p *Partition) Owner(cl core.Class, isHost func(topology.NodeID) bool) (int, error) {
	if len(cl.Path) == 0 {
		return 0, fmt.Errorf("shard: class %d has an empty path", cl.ID)
	}
	owner := -1
	for _, v := range cl.Path {
		if !isHost(v) {
			continue
		}
		if r := p.Region(v); owner < 0 || r < owner {
			owner = r
		}
	}
	if owner < 0 {
		owner = p.Region(cl.Path[0])
	}
	return owner, nil
}
