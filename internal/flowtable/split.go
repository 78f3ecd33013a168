package flowtable

import (
	"fmt"
	"math"
	"slices"

	"github.com/apple-nfv/apple/internal/headerspace"
)

// SplitPortions quantizes fractional sub-class portions onto a 2^bits
// grid and returns, per sub-class, the aligned prefix blocks over those
// suffix bits that realize its share. This is the paper's second sub-class
// method (§V-A): hardware switches cannot hash, so a portion like 50% of
// <10.1.1.0/24> becomes <10.1.1.128/25>. Portions must be non-negative and
// sum to ≈1; every strictly positive portion receives at least one grid
// unit. The drawback the paper notes — a single sub-class may need several
// rules — shows up here as len(blocks[i]) > 1.
func SplitPortions(portions []float64, bits int) ([][]headerspace.PrefixBlock, error) {
	if len(portions) == 0 {
		return nil, fmt.Errorf("flowtable: no portions")
	}
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("flowtable: split bits %d out of [1,16]", bits)
	}
	units := 1 << uint(bits)
	total := 0.0
	positive := 0
	for i, p := range portions {
		if p < 0 || math.IsNaN(p) {
			return nil, fmt.Errorf("flowtable: bad portion %v at %d", p, i)
		}
		if p > 0 {
			positive++
		}
		total += p
	}
	if total < 0.999 || total > 1.001 {
		return nil, fmt.Errorf("flowtable: portions sum to %v, want 1", total)
	}
	if positive == 0 {
		return nil, fmt.Errorf("flowtable: all portions zero")
	}
	if positive > units {
		return nil, fmt.Errorf("flowtable: %d positive portions exceed %d grid units", positive, units)
	}
	// Largest-remainder quantization with a floor of 1 unit for positive
	// portions.
	counts := make([]int, len(portions))
	remainders := make([]float64, len(portions))
	assigned := 0
	for i, p := range portions {
		exact := p / total * float64(units)
		counts[i] = int(exact)
		if p > 0 && counts[i] == 0 {
			counts[i] = 1
		}
		remainders[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for assigned != units {
		// Give to (or take from) the entry whose remainder is most
		// extreme, respecting the floor.
		best := -1
		for i := range portions {
			if portions[i] == 0 {
				continue
			}
			if assigned < units {
				if best < 0 || remainders[i] > remainders[best] {
					best = i
				}
			} else {
				if counts[i] <= 1 {
					continue
				}
				if best < 0 || remainders[i] < remainders[best] {
					best = i
				}
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("flowtable: cannot quantize portions onto %d units", units)
		}
		if assigned < units {
			counts[best]++
			remainders[best]--
			assigned++
		} else {
			counts[best]--
			remainders[best]++
			assigned--
		}
	}
	// Consecutive ranges, each decomposed into aligned prefixes.
	out := make([][]headerspace.PrefixBlock, len(portions))
	start := uint32(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		out[i] = headerspace.RangeToPrefixes(start, start+uint32(c)-1, bits)
		start += uint32(c)
	}
	return out, nil
}

// SuffixRules expands suffix blocks (over `bits` bits directly following
// the base prefix) into full 32-bit prefixes. For base 10.1.1.0/24 and an
// 8-bit suffix block {Value:1, Len:1}, the result is 10.1.1.128/25.
func SuffixRules(base Prefix, blocks []headerspace.PrefixBlock, bits int) ([]Prefix, error) {
	if base.Len < 0 || base.Len+bits > 32 {
		return nil, fmt.Errorf("flowtable: base /%d plus %d suffix bits exceeds 32", base.Len, bits)
	}
	out := make([]Prefix, 0, len(blocks))
	for _, b := range blocks {
		if b.Len > bits {
			return nil, fmt.Errorf("flowtable: block length %d exceeds suffix width %d", b.Len, bits)
		}
		if base.Len == 32 {
			out = append(out, Prefix{Addr: base.Addr, Len: 32})
			continue
		}
		newLen := base.Len + b.Len
		addr := uint32(0)
		if base.Len > 0 {
			addr = base.Addr & (^uint32(0) << uint(32-base.Len))
		}
		if newLen < 32 {
			addr |= b.Value << uint(32-newLen)
		} else {
			addr |= b.Value
		}
		out = append(out, Prefix{Addr: addr, Len: newLen})
	}
	return out, nil
}

// CrossProduct merges two pipelined tables into one single-table rule set
// with equivalent semantics, as required for switches that do not support
// pipelining (§V-B). Each goto-table rule of t1 is combined with every t2
// rule whose match intersects it; terminal rules of t1 carry over
// unchanged. The blow-up in Size() versus t1.Size()+t2.Size() is exactly
// the extra TCAM cost the paper's tagging scheme avoids.
func CrossProduct(t1, t2 *Table) (*Table, error) {
	if t1 == nil || t2 == nil {
		return nil, fmt.Errorf("flowtable: nil table")
	}
	out := NewTable()
	rules1, rules2 := t1.Rules(), t2.Rules()
	maxP2 := 0
	for _, r2 := range rules2 {
		if r2.Priority > maxP2 {
			maxP2 = r2.Priority
		}
	}
	stride := maxP2 + 2
	for _, r1 := range rules1 {
		gotoIdx := -1
		for i, a := range r1.Actions {
			if a.Type == ActGotoTable {
				gotoIdx = i
				break
			}
		}
		if gotoIdx < 0 {
			merged := r1
			merged.Priority = r1.Priority*stride + maxP2 + 1
			if err := out.Install(merged); err != nil {
				return nil, err
			}
			continue
		}
		for _, r2 := range rules2 {
			m, ok := intersectMatch(r1.Match, r2.Match)
			if !ok {
				continue
			}
			actions := make([]Action, 0, len(r1.Actions)+len(r2.Actions))
			actions = append(actions, r1.Actions[:gotoIdx]...)
			actions = append(actions, r2.Actions...)
			merged := Rule{
				Name:     r1.Name + "×" + r2.Name,
				Priority: r1.Priority*stride + r2.Priority,
				Match:    m,
				Actions:  actions,
			}
			if err := out.Install(merged); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// intersectMatch returns the conjunction of two matches, or ok=false when
// they are disjoint.
func intersectMatch(a, b Match) (Match, bool) {
	out := Match{set: a.set | b.set}
	var ok [8]bool
	out.hostTag, ok[0] = meet(a.Has(FieldHostTag), b.Has(FieldHostTag), a.hostTag, b.hostTag)
	out.subTag, ok[1] = meet(a.Has(FieldSubTag), b.Has(FieldSubTag), a.subTag, b.subTag)
	out.inPort, ok[2] = meet(a.Has(FieldInPort), b.Has(FieldInPort), a.inPort, b.inPort)
	src, srcOK := meetPrefix(a.Has(FieldSrc), b.Has(FieldSrc), a.src(), b.src())
	dst, dstOK := meetPrefix(a.Has(FieldDst), b.Has(FieldDst), a.dst(), b.dst())
	// Both are one of the clamped inputs, so they fit the packed fields.
	out.srcAddr, out.srcLen, ok[3] = src.Addr, int8(src.Len), srcOK
	out.dstAddr, out.dstLen, ok[4] = dst.Addr, int8(dst.Len), dstOK
	out.proto, ok[5] = meet(a.Has(FieldProto), b.Has(FieldProto), a.proto, b.proto)
	out.srcPort, ok[6] = meet(a.Has(FieldSrcPort), b.Has(FieldSrcPort), a.srcPort, b.srcPort)
	out.dstPort, ok[7] = meet(a.Has(FieldDstPort), b.Has(FieldDstPort), a.dstPort, b.dstPort)
	return out, !slices.Contains(ok[:], false)
}

// meet is one scalar field of intersectMatch: whichever of x and y is set
// (y, zero, when neither is), failing when both are set and disagree.
func meet[T comparable](xSet, ySet bool, x, y T) (T, bool) {
	if !xSet {
		return y, true
	}
	return x, !ySet || x == y
}

// meetPrefix is meet for a prefix field: of two set prefixes the longer
// one, if the shorter contains it; otherwise they are disjoint.
func meetPrefix(xSet, ySet bool, x, y Prefix) (Prefix, bool) {
	if !xSet {
		return y, true
	}
	if !ySet {
		return x, true
	}
	longer, shorter := x, y
	if y.Len > x.Len {
		longer, shorter = y, x
	}
	return longer, shorter.Contains(longer.Addr)
}
