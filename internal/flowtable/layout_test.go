package flowtable

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// TestRuleLayout pins the sizes of what every installed rule carries, so
// that growing one past its allocation size class is a visible decision:
// an entry is one 96-byte object; the Match in it is 32 bytes, its
// prefixes an address and a clamped length each, which makes the Rule 80;
// an action list costs 24 bytes a step; a trie node, of which every kids
// array and root page is made, is 72 bytes with its draft stamp; and a
// trie slot, of which every data array is made, is one pointer: its key
// is packed from its entry's Match, and the key's lower-ranked rules wait
// in the table's dupIndex. A tuple header, which every publication that
// touches the tuple copies, is 280 bytes (a 288-byte size class) with the
// root's sixteen page pointers inline.
func TestRuleLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Match", unsafe.Sizeof(Match{}), 32},
		{"Rule", unsafe.Sizeof(Rule{}), 80},
		{"Action", unsafe.Sizeof(Action{}), 24},
		{"entry", unsafe.Sizeof(entry{}), 96},
		{"trieNode", unsafe.Sizeof(trieNode{}), 72},
		{"trieSlot", unsafe.Sizeof(trieSlot{}), 8},
		{"tuple", unsafe.Sizeof(tuple{}), 280},
	} {
		if c.got > c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d B, over %d", c.name, c.got, c.want)
		}
	}
}

// fatTreeRule is rule i of a table shaped like FatTree's busiest ones:
// classification rows (host tag empty, a source prefix, three actions),
// two to a class, and steering rows (in-port, sub-class tag and source
// prefix, one or two actions), two to a sub-class, in equal numbers.
func fatTreeRule(i int) Rule {
	class := i / 4
	src := Prefix{Addr: 10<<24 | uint32(class)<<8 | uint32(i%2)<<7, Len: 25}
	if i%4 < 2 {
		return Rule{
			Name: fmt.Sprintf("cls-%d", class), Priority: 200,
			Match: Match{}.WithHostTag(HostTagEmpty).WithSrc(src),
			Actions: []Action{
				{Type: ActSetSubTag, Tag: uint16(i % 2)},
				{Type: ActSetHostTag, Tag: uint16(1 + class%int(MaxHostTag))},
				{Type: ActGotoTable, Table: 1},
			},
		}
	}
	r := Rule{
		Name: fmt.Sprintf("vsw-%d-0", class), Priority: 10,
		Match:   Match{}.WithInPort(i % 4).WithSubTag(uint8(class % 64)).WithSrc(src),
		Actions: []Action{{Type: ActForward, Port: 2 + i%8}},
	}
	if i%4 == 3 {
		r.Actions = []Action{{Type: ActSetHostTag, Tag: HostTagFin}, {Type: ActForward, Port: 1}}
	}
	return r
}

// TestTableBytesPerRule pins the live heap a table holds per installed
// rule: entry, name index, compiled snapshot, action lists and names,
// after 20 000 FatTree-shaped rules went in as one batch. With pointer
// Match fields, a match-order treap, a slice per name and 32-byte actions
// it was 406 B; with value fields, no treap, an intrusive name chain and
// 24-byte actions 311 B; with 16-byte trie slots that keep no key of
// their own 279 B; with a 32-byte Match (a 96-byte entry) and 8-byte
// slots that keep no duplicate list it is 236 B. The gate is 245 B, the
// measured figure plus about 4 %.
func TestTableBytesPerRule(t *testing.T) {
	const n = 20_000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{Rule: fatTreeRule(i)}
	}
	tbl := NewTable()
	if _, err := tbl.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	ops = nil
	perRule := float64(heap()-before) / n
	runtime.KeepAlive(tbl)
	t.Logf("%.0f B of live heap per rule", perRule)
	if perRule > 245 {
		t.Fatalf("table holds %.0f B per rule, over 245", perRule)
	}
}
