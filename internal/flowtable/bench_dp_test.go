package flowtable

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Data-plane benchmarks: the compiled tuple-space matcher against the
// linear TCAM scan at 1 / 100 / 10k / 100k rules, plus parallel lookup
// scaling and the multi-table Process walk. LookupLinear/ProcessLinear
// are the reference matcher here and, cross-package, in the root
// dataplane_topo_test.go and internal/controller/dataplane_diff_test.go,
// which is why they live in the package and not in a _test.go file.

// benchRules synthesizes n rules across the handful of match shapes the
// Rule Generator actually emits (Table III): routing on a destination
// prefix, host-match on the host tag, classification on empty tag +
// source/destination prefixes, pass-by on tag + in-port, and port ACLs.
// Returned rules are sorted by descending priority so a sequential
// install appends instead of shifting.
func benchRules(rng *rand.Rand, n int) []Rule {
	rules := make([]Rule, 0, n)
	for i := 0; i < n; i++ {
		r := Rule{Name: fmt.Sprintf("r%d", i), Actions: []Action{{Type: ActForward, Port: i % 48}}}
		switch i % 5 {
		case 0: // routing: dst /24
			r.Priority = 10
			r.Match = Match{}.WithDst(Prefix{Addr: rng.Uint32(), Len: 24})
		case 1: // host match: exact tag
			r.Priority = 30
			r.Match = Match{}.WithHostTag(uint16(i) & MaxHostTag)
		case 2: // classification: empty tag + src /27 + dst /24
			r.Priority = 20
			r.Match = Match{}.WithHostTag(HostTagEmpty).
				WithSrc(Prefix{Addr: rng.Uint32(), Len: 27}).
				WithDst(Prefix{Addr: rng.Uint32(), Len: 24})
		case 3: // pass-by: tag + in-port
			r.Priority = 25
			r.Match = Match{}.WithHostTag(uint16(i) & MaxHostTag).WithInPort(i % 8)
		case 4: // ACL: proto + dst port
			r.Priority = 40
			r.Match = Match{}.WithProto(uint8(i % 3)).WithDstPort(uint16(i % 1024))
		}
		rules = append(rules, r)
	}
	sort.SliceStable(rules, func(a, b int) bool { return rules[a].Priority > rules[b].Priority })
	return rules
}

// benchPackets pre-generates a packet mix that exercises every shape,
// with roughly half the lookups hitting a rule.
func benchPackets(rng *rand.Rand, rules []Rule, n int) []Packet {
	pkts := make([]Packet, n)
	for i := range pkts {
		var p Packet
		if len(rules) > 0 && i%2 == 0 {
			// Derive from a random rule so the packet matches it.
			r := rules[rng.Intn(len(rules))]
			p = packetFor(r.Match, p)
		} else {
			p.Hdr.SrcIP = rng.Uint32()
			p.Hdr.DstIP = rng.Uint32()
			p.Hdr.Proto = uint8(rng.Intn(3))
			p.Hdr.DstPort = uint16(rng.Intn(1024))
			p.HostTag = uint16(rng.Intn(4096))
			p.InPort = rng.Intn(8)
		}
		pkts[i] = p
	}
	return pkts
}

// benchTable builds a table of n synthetic rules through one ApplyBatch.
func benchTable(b *testing.B, n int) (*Table, []Packet) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	rules := benchRules(rng, n)
	ops := make([]BatchOp, len(rules))
	for i, r := range rules {
		ops[i] = BatchOp{Rule: r}
	}
	tbl := NewTable()
	if _, err := tbl.ApplyBatch(ops); err != nil {
		b.Fatal(err)
	}
	return tbl, benchPackets(rng, rules, 4096)
}

var benchSizes = []int{1, 100, 10_000, 100_000}

func BenchmarkLookup(b *testing.B) {
	for _, n := range benchSizes {
		tbl, pkts := benchTable(b, n)
		b.Run(fmt.Sprintf("compiled/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl.Lookup(pkts[i%len(pkts)])
			}
		})
		b.Run(fmt.Sprintf("linear/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl.LookupLinear(pkts[i%len(pkts)])
			}
		})
	}
}

func BenchmarkLookupParallel(b *testing.B) {
	for _, n := range benchSizes {
		tbl, pkts := benchTable(b, n)
		b.Run(fmt.Sprintf("compiled/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					tbl.Lookup(pkts[i%len(pkts)])
					i++
				}
			})
		})
	}
}

// benchPipeline builds a 3-table pipeline shaped like a physical switch:
// classification (set tag, goto), steering (tag match, goto), routing
// (forward), with n rules spread across the tables.
func benchPipeline(b *testing.B, n int) (*Pipeline, []Packet) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	pl, err := NewPipeline(3)
	if err != nil {
		b.Fatal(err)
	}
	third := n / 3
	if third == 0 {
		third = 1
	}
	for ti := 0; ti < 3; ti++ {
		tb, _ := pl.Table(ti)
		rules := benchRules(rng, third)
		ops := make([]BatchOp, 0, len(rules)+1)
		for i, r := range rules {
			r.Name = fmt.Sprintf("t%d-%s", ti, r.Name)
			if ti < 2 {
				r.Actions = []Action{{Type: ActSetSubTag, Tag: uint16(i % 60)}, {Type: ActGotoTable, Table: ti + 1}}
			}
			ops = append(ops, BatchOp{Rule: r})
		}
		// Catch-all so every packet walks the full pipeline.
		acts := []Action{{Type: ActForward, Port: 1}}
		if ti < 2 {
			acts = []Action{{Type: ActGotoTable, Table: ti + 1}}
		}
		ops = append(ops, BatchOp{Rule: Rule{Name: fmt.Sprintf("t%d-default", ti), Priority: -1, Actions: acts}})
		if _, err := tb.ApplyBatch(ops); err != nil {
			b.Fatal(err)
		}
	}
	return pl, benchPackets(rng, benchRules(rng, third), 4096)
}

func BenchmarkProcessPipeline(b *testing.B) {
	for _, n := range []int{100, 10_000} {
		pl, pkts := benchPipeline(b, n)
		b.Run(fmt.Sprintf("compiled/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pkts[i%len(pkts)]
				if _, err := pl.Process(&p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("linear/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pkts[i%len(pkts)]
				if _, err := pl.ProcessLinear(&p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLookupCold probes 128 tables of 1 300 classification rules
// each (FatTree-16's hot-table size), a random table and an installed key
// per probe, so the trie nodes a probe reads are in no cache. It is the
// cache-cold twin of BenchmarkLookup, whose one table stays cache-resident
// and so cannot see a dependent load added to a probe.
func BenchmarkLookupCold(b *testing.B) {
	const tables, rules = 128, 1300
	rng := rand.New(rand.NewSource(3))
	acts := []Action{{Type: ActForward, Port: 1}}
	matches := make([][]Match, tables)
	tbls := make([]*Table, tables)
	for i := range tbls {
		ops := make([]BatchOp, rules)
		for j := range ops {
			m := Match{}.WithHostTag(HostTagEmpty).
				WithSrc(Prefix{Addr: rng.Uint32(), Len: 27}).
				WithDst(Prefix{Addr: rng.Uint32(), Len: 24})
			matches[i] = append(matches[i], m)
			ops[j] = BatchOp{Rule: Rule{Name: fmt.Sprint(j), Priority: 20, Match: m, Actions: acts}}
		}
		tbls[i] = NewTable()
		if _, err := tbls[i].ApplyBatch(ops); err != nil {
			b.Fatal(err)
		}
	}
	type probe struct {
		t *Table
		p Packet
	}
	probes := make([]probe, 1<<16)
	for i := range probes {
		ti := rng.Intn(tables)
		probes[i] = probe{tbls[ti], packetFor(matches[ti][rng.Intn(rules)], Packet{})}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := &probes[i&(len(probes)-1)]
		if _, ok := pr.t.Lookup(pr.p); !ok {
			b.Fatal("probe missed its rule")
		}
	}
}

// BenchmarkApplyBatch1 is what one rule costs to publish: a one-rule
// ApplyBatchUndo and its Revert, at FatTree-16's hot-table size and at
// 64 k rules.
func BenchmarkApplyBatch1(b *testing.B) {
	for _, n := range []int{1300, 64_000} {
		tbl := churnTable(b, n)
		ops := make([][]BatchOp, 1024)
		for i := range ops {
			ops[i] = []BatchOp{{Rule: churnRule(n + i)}}
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, undo, err := tbl.ApplyBatchUndo(ops[i%len(ops)])
				if err != nil {
					b.Fatal(err)
				}
				tbl.Revert(undo)
			}
		})
	}
}
