package flowtable

import (
	"math/rand"
	"slices"
	"testing"
)

// collidingKey returns a key that differs from k yet hashes to the same
// 64 bits: hash finalizes lo ^ spread(hi) ^ spread(port) with a
// bijection, so changing hi and folding the difference back into lo
// leaves the hash unchanged.
func collidingKey(k matchKey, hi uint64) matchKey {
	const mul = 0x9E3779B97F4A7C15 // hash's multiplier for hi
	return matchKey{lo: k.lo ^ spread(k.hi, mul) ^ spread(hi, mul), hi: hi, port: k.port}
}

func TestCollidingKeyCollides(t *testing.T) {
	k := matchKey{lo: 0x0A0B0C0D11223344, hi: 7, port: 3}
	c := collidingKey(k, 9)
	if c == k || c.hash() != k.hash() {
		t.Fatalf("collidingKey: %+v (hash %x) vs %+v (hash %x)", c, c.hash(), k, k.hash())
	}
}

// TestTrieAgainstMap drives the persistent trie through thousands of
// drafts of random inserts and removes — over a key pool with groups
// that collide in all 64 hash bits and with several rules per key — and
// checks every draft against a map model. Every published root is kept
// with a copy of its model and re-checked at the end: a mutation that
// wrote into a shared node would corrupt an older root.
func TestTrieAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pool []matchKey
	for i := 0; i < 1500; i++ {
		k := matchKey{lo: rng.Uint64(), hi: uint64(rng.Intn(4)), port: int64(rng.Intn(3))}
		pool = append(pool, k)
		if i%100 == 0 { // a group of three full-hash collisions
			pool = append(pool, collidingKey(k, 100), collidingKey(k, 200))
		}
	}
	absent := matchKey{lo: 1, hi: 999, port: 99}

	type published struct {
		root  trieNode
		model map[matchKey][]*entry
	}
	var history []published
	model := make(map[matchKey][]*entry)
	var live []*entry
	keyOf := make(map[*entry]matchKey)
	var root trieNode
	seq := uint64(0)

	check := func(when string, root trieNode, model map[matchKey][]*entry) {
		t.Helper()
		count := 0
		for k, ents := range model {
			count += len(ents)
			if got := root.find(k.hash(), k); got != ents[0] {
				t.Fatalf("%s: find(%+v) = %p, want best %p", when, k, got, ents[0])
			}
		}
		if got := root.find(absent.hash(), absent); got != nil {
			t.Fatalf("%s: absent key found", when)
		}
		seen := 0
		root.each(func(e *entry) {
			seen++
			if !slices.Contains(model[keyOf[e]], e) {
				t.Fatalf("%s: each yielded an entry the model lacks", when)
			}
		})
		if seen != count {
			t.Fatalf("%s: each yielded %d entries, model has %d", when, seen, count)
		}
	}

	for gen := uint64(1); gen <= 3000; gen++ {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			if len(live) > 0 && rng.Intn(5) < 2 {
				i := rng.Intn(len(live))
				e := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				k := keyOf[e]
				root.remove(gen, k.hash(), 0, k, e)
				model[k] = slices.DeleteFunc(slices.Clone(model[k]), func(x *entry) bool { return x == e })
				if len(model[k]) == 0 {
					delete(model, k)
				}
				continue
			}
			k := pool[rng.Intn(len(pool))]
			e := &entry{rule: Rule{Priority: rng.Intn(3)}, seq: seq}
			seq++
			keyOf[e] = k
			live = append(live, e)
			root.insert(gen, k.hash(), 0, k, e)
			ents := append(slices.Clone(model[k]), e)
			slices.SortFunc(ents, byRank)
			model[k] = ents
		}
		if gen%50 == 0 {
			check("live", root, model)
			frozen := make(map[matchKey][]*entry, len(model))
			for k, ents := range model {
				frozen[k] = ents // replaced, never edited, by later steps
			}
			history = append(history, published{root, frozen})
		}
	}
	if len(live) < 500 {
		t.Fatalf("only %d live entries at the end; the trie never grew deep", len(live))
	}
	for i, p := range history {
		check("snapshot "+string(rune('a'+i%26)), p.root, p.model)
	}
}

// TestFullHashCollisionThroughTable installs real rules whose packed keys
// collide in all 64 hash bits, inside a tuple large enough to be a trie,
// and checks Lookup against LookupLinear while they come and go.
func TestFullHashCollisionThroughTable(t *testing.T) {
	shape := shapeKey{mask: cHostTag | cSrc | cDst, srcLen: 32, dstLen: 32}
	ruleFor := func(k matchKey, name string) Rule {
		return Rule{Name: name, Priority: 5,
			Match: Match{
				HostTag: U16(uint16(k.hi)),
				Src:     &Prefix{Addr: uint32(k.lo), Len: 32},
				Dst:     &Prefix{Addr: uint32(k.lo >> 32), Len: 32},
			},
			Actions: []Action{{Type: ActForward, Port: int(k.hi)}}}
	}
	base := matchKey{lo: 0x0A0000010B000002, hi: 1}
	keys := []matchKey{base, collidingKey(base, 2), collidingKey(base, 3)}
	for i := uint64(0); i < 20; i++ { // filler so the tuple is a trie
		keys = append(keys, matchKey{lo: 0xC0A80000_00000000 | i, hi: 50 + i})
	}
	tbl := NewTable()
	for i, k := range keys {
		r := ruleFor(k, string(rune('a'+i)))
		if got := ruleKey(r.Match, shape); got != k {
			t.Fatalf("rule %d packs to %+v, want %+v", i, got, k)
		}
		if err := tbl.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	if c := tbl.compiled.Load(); len(c.tuples) != 1 || !c.tuples[0].trie {
		t.Fatalf("expected one trie tuple, got %+v", c)
	}
	checkAll := func(when string) {
		t.Helper()
		for _, k := range keys {
			pkt := packetFor(ruleFor(k, "").Match, Packet{})
			got, ok := tbl.Lookup(pkt)
			want, wantOK := tbl.LookupLinear(pkt)
			if ok != wantOK || got.Name != want.Name {
				t.Fatalf("%s: key %+v: Lookup (%q,%v), LookupLinear (%q,%v)", when, k, got.Name, ok, want.Name, wantOK)
			}
		}
	}
	checkAll("all installed")
	if got, ok := tbl.Lookup(packetFor(ruleFor(keys[1], "").Match, Packet{})); !ok || got.Name != "b" {
		t.Fatalf("colliding key 1 resolved to %q ok=%v, want b", got.Name, ok)
	}
	tbl.Remove("b")
	checkAll("one collider removed")
	tbl.Remove("a")
	checkAll("two colliders removed")
	tbl.Remove("c")
	checkAll("all colliders removed")
	if err := tbl.Install(ruleFor(keys[2], "c2")); err != nil {
		t.Fatal(err)
	}
	checkAll("one collider back")
}
